(* The package DSL (paper Fig. 1), build specialization (Fig. 4),
   repositories with site overrides (§4.3.2), and the versioned
   provider index (Fig. 5). *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Provider_index = Ospack_package.Provider_index
module Build_step = Ospack_package.Build_step
module Ast = Ospack_spec.Ast
module Concrete = Ospack_spec.Concrete
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist

(* the paper's Fig. 1 package *)
let mpileaks =
  make_pkg "mpileaks"
    ~description:"Tool to detect and report leaked MPI objects."
    [
      homepage "https://github.com/hpc/mpileaks";
      version "1.0" ~md5:"8838c574b39202a57d7c2d68692718aa";
      version "1.1" ~md5:"4282eddb08ad8d36df15b06d4be38bcb";
      depends_on "mpi";
      depends_on "callpath";
      variant "debug" ~descr:"debug build";
      install
        (fun ctx ->
          [
            configure
              [
                "--prefix=" ^ ctx.rc_prefix;
                "--with-callpath=" ^ dep_prefix ctx "callpath";
              ];
            make [];
            make [ "install" ];
          ]);
    ]

let dsl_basics () =
  Alcotest.(check string) "name" "mpileaks" mpileaks.p_name;
  Alcotest.(check (list string)) "versions newest first" [ "1.1"; "1.0" ]
    (List.map Version.to_string (known_versions mpileaks));
  Alcotest.(check (option string)) "checksum lookup"
    (Some "8838c574b39202a57d7c2d68692718aa")
    (checksum_for mpileaks (Version.of_string "1.0"));
  Alcotest.(check (option string)) "no checksum for unknown" None
    (checksum_for mpileaks (Version.of_string "9.9"));
  Alcotest.(check int) "two deps" 2 (List.length mpileaks.p_dependencies);
  Alcotest.(check bool) "variant declared" true
    (find_variant mpileaks "debug" <> None);
  Alcotest.(check (list (pair string bool))) "variant defaults"
    [ ("debug", false) ]
    (variant_defaults mpileaks)

let dsl_errors () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad depends_on spec" true
    (raises (fun () -> ignore (make_pkg "p" [ depends_on "a b" ])));
  Alcotest.(check bool) "unnamed dependency" true
    (raises (fun () -> ignore (make_pkg "p" [ depends_on "@1.0" ])));
  Alcotest.(check bool) "bad when predicate" true
    (raises (fun () -> ignore (make_pkg "p" [ depends_on "a" ~when_:"b c" ])));
  Alcotest.(check bool) "duplicate version" true
    (raises (fun () -> ignore (make_pkg "p" [ version "1.0"; version "1.0" ])));
  Alcotest.(check bool) "duplicate variant" true
    (raises (fun () ->
         ignore
           (make_pkg "p" [ variant "x" ~descr:"a"; variant "x" ~descr:"b" ])));
  Alcotest.(check bool) "unnamed provides" true
    (raises (fun () -> ignore (make_pkg "p" [ provides "@1.0" ])))

let preferred () =
  let p =
    make_pkg "p" [ version "2.0"; version "1.5" ~preferred:true; version "1.0" ]
  in
  Alcotest.(check (list string)) "preferred list" [ "1.5" ]
    (List.map Version.to_string (preferred_versions p))

let concrete_for name ver =
  match
    Concrete.make ~root:name
      [
        {
          Concrete.name;
          version = Version.of_string ver;
          compiler = ("gcc", Version.of_string "4.9.2");
          variants = Concrete.Smap.empty;
          arch = "linux-x86_64";
          deps = [];
          provided = [];
        };
      ]
  with
  | Ok c -> c
  | Error _ -> Alcotest.fail "bad concrete"

let dyninst_like =
  make_pkg "dyn"
    [
      version "8.1.2";
      version "8.2";
      install_when "@:8.1"
        (fun ctx -> [ configure [ "--prefix=" ^ ctx.rc_prefix ] ]);
      install (fun _ -> [ cmake [ ".." ] ]);
    ]

let run_recipe pkg spec =
  let recipe = recipe_for pkg spec in
  recipe
    {
      rc_spec = spec;
      rc_prefix = "/prefix";
      rc_dep_prefix = (fun _ -> raise Not_found);
    }

let when_dispatch () =
  (match run_recipe dyninst_like (concrete_for "dyn" "8.1.2") with
  | [ Build_step.Configure _ ] -> ()
  | steps ->
      Alcotest.failf "expected configure for 8.1.2, got %s"
        (String.concat "; " (List.map Build_step.to_string steps)));
  match run_recipe dyninst_like (concrete_for "dyn" "8.2") with
  | [ Build_step.Cmake _ ] -> ()
  | steps ->
      Alcotest.failf "expected cmake for 8.2, got %s"
        (String.concat "; " (List.map Build_step.to_string steps))

let declaration_order_precedence () =
  let p =
    make_pkg "p"
      [
        version "2.4";
        install_when "@2.4" (fun _ -> [ Build_step.Note "specific" ]);
        install_when "@2:" (fun _ -> [ Build_step.Note "general" ]);
        install (fun _ -> [ Build_step.Note "default" ]);
      ]
  in
  match run_recipe p (concrete_for "p" "2.4") with
  | [ Build_step.Note "specific" ] -> ()
  | steps ->
      Alcotest.failf "wrong dispatch: %s"
        (String.concat "; " (List.map Build_step.to_string steps))

let override_mechanism () =
  (* §4.3.2: a site package inherits and tweaks the built-in one *)
  let site =
    override mpileaks
      [ version "1.2"; variant "sitevar" ~descr:"site-only option" ]
  in
  Alcotest.(check int) "inherited deps" 2 (List.length site.p_dependencies);
  Alcotest.(check bool) "new version visible" true
    (List.exists (fun v -> Version.to_string v = "1.2") (known_versions site));
  Alcotest.(check bool) "old versions kept" true
    (List.exists (fun v -> Version.to_string v = "1.0") (known_versions site));
  Alcotest.(check bool) "new variant" true (find_variant site "sitevar" <> None);
  Alcotest.(check bool) "base unchanged" true
    (find_variant mpileaks "sitevar" = None)

let closest_name () =
  let repo =
    Repository.create
      [
        make_pkg "mpileaks" [ version "1.0" ];
        make_pkg "dyninst" [ version "1.0" ];
        make_pkg "libelf" [ version "1.0" ];
      ]
  in
  Alcotest.(check (option string)) "transposition" (Some "mpileaks")
    (Repository.closest repo "mpilekas");
  Alcotest.(check (option string)) "extra letter" (Some "dyninst")
    (Repository.closest repo "dyninstt");
  Alcotest.(check (option string)) "exact" (Some "libelf")
    (Repository.closest repo "libelf");
  Alcotest.(check (option string)) "too far" None
    (Repository.closest repo "zzzzzzzzzz")

let repo_layering () =
  let base =
    Repository.create ~name:"builtin"
      [ make_pkg "a" [ version "1.0" ]; make_pkg "b" [ version "1.0" ] ]
  in
  let site =
    Repository.create ~name:"site"
      [ make_pkg "b" [ version "9.9" ]; make_pkg "c" [ version "1.0" ] ]
  in
  let layered = Repository.layered [ site; base ] in
  Alcotest.(check int) "count after shadowing" 3 (Repository.count layered);
  (match Repository.find layered "b" with
  | Some b ->
      Alcotest.(check (list string)) "site b shadows" [ "9.9" ]
        (List.map Version.to_string (known_versions b));
      Alcotest.(check string) "provenance names site repo" "site:b" b.p_source
  | None -> Alcotest.fail "b expected");
  Alcotest.(check bool) "builtin a still visible" true
    (Repository.mem layered "a");
  Alcotest.check_raises "duplicate within one layer"
    (Invalid_argument "repository r: duplicate package x") (fun () ->
      ignore
        (Repository.create ~name:"r"
           [ make_pkg "x" [ version "1" ]; make_pkg "x" [ version "2" ] ]))

(* --- provider index (paper Fig. 5) --- *)

let fig5_repo () =
  Repository.create
    [
      make_pkg "mvapich2"
        [
          version "1.9"; version "2.0";
          provides "mpi@:2.2" ~when_:"@1.9";
          provides "mpi@:3.0" ~when_:"@2.0";
        ];
      make_pkg "mpich"
        [
          version "1.4"; version "3.0.4";
          provides "mpi@:3" ~when_:"@3:";
          provides "mpi@:1" ~when_:"@1:1.9";
        ];
      make_pkg "mpileaks" [ version "1.0"; depends_on "mpi" ];
      make_pkg "gerris" [ version "1.0"; depends_on "mpi@2:" ];
    ]

let provider_index () =
  let idx = Provider_index.build (fig5_repo ()) in
  Alcotest.(check bool) "mpi is virtual" true (Provider_index.is_virtual idx "mpi");
  Alcotest.(check bool) "mpich is not" false (Provider_index.is_virtual idx "mpich");
  Alcotest.(check (list string)) "virtual names" [ "mpi" ]
    (Provider_index.virtual_names idx);
  Alcotest.(check int) "four provide entries" 4
    (List.length (Provider_index.providers idx "mpi"));
  (* gerris' mpi@2: requirement excludes mpich's mpi@:1 entry *)
  let req = (Ospack_spec.Parser.parse_exn "mpi@2:").Ast.root in
  let sat = Provider_index.providers_satisfying idx req in
  Alcotest.(check int) "three entries satisfy mpi@2:" 3 (List.length sat);
  Alcotest.(check bool) "mpich@:1 entry excluded" true
    (List.for_all
       (fun e ->
         not
           (e.Provider_index.e_provider = "mpich"
           && Vlist.subset e.Provider_index.e_provided.Ast.versions
                (Vlist.of_string ":1")))
       sat)

let provider_index_rejects_ambiguity () =
  let repo =
    Repository.create
      [
        make_pkg "mpi" [ version "1.0" ];
        make_pkg "impl" [ version "1.0"; provides "mpi" ];
      ]
  in
  Alcotest.(check bool) "package and virtual with one name" true
    (try
       ignore (Provider_index.build repo);
       false
     with Invalid_argument _ -> true)

(* identity hashes are memoized per repository value: stable across
   calls, equal to the hash of the visible package's identity string, and
   shadowed like the package itself *)
let identity_hashes () =
  let hash_of p = Ospack_hash.Sha256.hex_digest (identity_string p) in
  let libx v = make_pkg "libx" [ version v ] in
  let base = Repository.create [ libx "1.0"; make_pkg "app" [ version "2.0" ] ] in
  let site = Repository.create ~name:"site" [ libx "1.1" ] in
  let layered = Repository.layered [ site; base ] in
  let visible repo name = hash_of (Repository.find_exn repo name) in
  Alcotest.(check string) "hash of the identity string"
    (visible base "libx") (Repository.identity_hash base "libx");
  Alcotest.(check string) "memoized value is stable"
    (Repository.identity_hash base "libx") (Repository.identity_hash base "libx");
  Alcotest.(check string) "layered: the site package's hash"
    (visible layered "libx") (Repository.identity_hash layered "libx");
  Alcotest.(check bool) "shadowing changes the hash" true
    (Repository.identity_hash layered "libx" <> Repository.identity_hash base "libx");
  Alcotest.(check string) "unshadowed packages agree"
    (Repository.identity_hash base "app") (Repository.identity_hash layered "app");
  Alcotest.(check string) "absent name" "absent"
    (Repository.identity_hash base "nosuch")

let () =
  Alcotest.run "package"
    [
      ( "dsl",
        [
          Alcotest.test_case "Fig. 1 package" `Quick dsl_basics;
          Alcotest.test_case "eager directive errors" `Quick dsl_errors;
          Alcotest.test_case "preferred versions" `Quick preferred;
        ] );
      ( "specialization",
        [
          Alcotest.test_case "Fig. 4 @when dispatch" `Quick when_dispatch;
          Alcotest.test_case "declaration order wins" `Quick
            declaration_order_precedence;
          Alcotest.test_case "site override (§4.3.2)" `Quick override_mechanism;
        ] );
      ( "repository",
        [
          Alcotest.test_case "layering and shadowing" `Quick repo_layering;
          Alcotest.test_case "closest-name suggestions" `Quick closest_name;
          Alcotest.test_case "identity hashes" `Quick identity_hashes;
        ] );
      ( "providers",
        [
          Alcotest.test_case "Fig. 5 versioned virtuals" `Quick provider_index;
          Alcotest.test_case "name collision rejected" `Quick
            provider_index_rejects_ambiguity;
        ] );
    ]
