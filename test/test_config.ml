(* Layered configuration and site/user policies (paper §3.4.4, §4.3.1). *)

module Config = Ospack_config.Config
module Policy = Ospack_config.Policy
module Compilers = Ospack_config.Compilers
module Ast = Ospack_spec.Ast
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist

let parse_format () =
  let cfg =
    Config.parse_exn
      {|
# a comment
arch = bgq
compiler_order = icc, gcc@4.4.7   # trailing comment

[providers]
mpi = mvapich2, openmpi

[packages.python]
version = 2.7.9
variants = +shared~debug
|}
  in
  Alcotest.(check (option string)) "top key" (Some "bgq") (Config.get cfg "arch");
  Alcotest.(check (list string)) "list value" [ "icc"; "gcc@4.4.7" ]
    (Config.get_list cfg "compiler_order");
  Alcotest.(check (option string)) "sectioned key" (Some "mvapich2, openmpi")
    (Config.get cfg "providers.mpi");
  Alcotest.(check (option string)) "dotted section" (Some "2.7.9")
    (Config.get cfg "packages.python.version");
  Alcotest.(check (option string)) "missing" None (Config.get cfg "nope");
  Alcotest.(check (list string)) "missing list" [] (Config.get_list cfg "nope")

let parse_errors () =
  Alcotest.(check bool) "no equals" true
    (Result.is_error (Config.parse "justakey"));
  Alcotest.(check bool) "empty key" true (Result.is_error (Config.parse "= v"));
  Alcotest.(check bool) "unterminated section" true
    (Result.is_error (Config.parse "[sec"))

let layering () =
  let site = Config.of_assoc [ ("arch", "bgq"); ("x", "site") ] in
  let user = Config.of_assoc [ ("x", "user"); ("y", "only-user") ] in
  let cfg = Config.layer [ user; site ] in
  Alcotest.(check (option string)) "user wins" (Some "user") (Config.get cfg "x");
  Alcotest.(check (option string)) "site fills" (Some "bgq") (Config.get cfg "arch");
  Alcotest.(check (option string)) "user-only" (Some "only-user") (Config.get cfg "y")

(* --- compiler registry --- *)

let toolchains =
  Compilers.create
    [
      Compilers.toolchain "gcc" "4.4.7";
      Compilers.toolchain "gcc" "4.9.2";
      Compilers.toolchain "intel" "14.0.3" ~archs:[ "linux" ];
      Compilers.toolchain "xl" "12.1" ~archs:[ "bgq" ];
    ]

let registry () =
  Alcotest.(check int) "all" 4 (List.length (Compilers.all toolchains));
  Alcotest.(check int) "bgq sees gcc+xl" 3
    (List.length (Compilers.available toolchains ~arch:"bgq"));
  Alcotest.(check bool) "vendor drivers" true
    ((Compilers.toolchain "intel" "15.0").Compilers.tc_cc = "icc");
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore
         (Compilers.create
            [ Compilers.toolchain "gcc" "4.9.2"; Compilers.toolchain "gcc" "4.9.2" ]);
       false
     with Invalid_argument _ -> true);
  let req = { Ast.c_name = "gcc"; c_versions = Vlist.of_string "4.9" } in
  (match Compilers.satisfying toolchains ~arch:"linux" req with
  | [ tc ] ->
      Alcotest.(check string) "prefix-matched version" "4.9.2"
        (Version.to_string tc.Compilers.tc_version)
  | other -> Alcotest.failf "expected one gcc@4.9, got %d" (List.length other))

(* --- policies --- *)

let policy_arch () =
  Alcotest.(check string) "default arch fallback" "linux-x86_64"
    (Policy.default_arch Config.empty);
  Alcotest.(check string) "configured arch" "bgq"
    (Policy.default_arch (Config.of_assoc [ ("arch", "bgq") ]))

let policy_compiler_order () =
  (* §4.3.1: compiler_order = icc, gcc@4.4.7 prefers icc, then that exact
     gcc, then everything else *)
  let cfg = Config.of_assoc [ ("compiler_order", "intel, gcc@4.4.7") ] in
  let choose req arch = Policy.choose_toolchain cfg toolchains ~arch ~req () in
  (match choose None "linux" with
  | Some tc -> Alcotest.(check string) "intel first on linux" "intel" tc.Compilers.tc_name
  | None -> Alcotest.fail "toolchain expected");
  (match choose None "bgq" with
  | Some tc ->
      Alcotest.(check string) "listed gcc version on bgq" "gcc" tc.Compilers.tc_name;
      Alcotest.(check string) "exactly 4.4.7" "4.4.7"
        (Version.to_string tc.Compilers.tc_version)
  | None -> Alcotest.fail "toolchain expected");
  (* without an order, the vendor ranking prefers gcc, newest first *)
  (match Policy.choose_toolchain Config.empty toolchains ~arch:"linux" ~req:None () with
  | Some tc ->
      Alcotest.(check string) "gcc by default" "gcc" tc.Compilers.tc_name;
      Alcotest.(check string) "newest gcc" "4.9.2"
        (Version.to_string tc.Compilers.tc_version)
  | None -> Alcotest.fail "toolchain expected");
  (* requirements filter before ranking *)
  let req = Some { Ast.c_name = "xl"; c_versions = Vlist.any } in
  Alcotest.(check bool) "xl not on linux" true
    (Policy.choose_toolchain cfg toolchains ~arch:"linux" ~req () = None)

let policy_providers () =
  let cfg = Config.of_assoc [ ("providers.mpi", "mvapich2, openmpi") ] in
  Alcotest.(check int) "first" 0 (Policy.rank_provider cfg ~virtual_:"mpi" "mvapich2");
  Alcotest.(check int) "second" 1 (Policy.rank_provider cfg ~virtual_:"mpi" "openmpi");
  Alcotest.(check int) "unlisted" max_int
    (Policy.rank_provider cfg ~virtual_:"mpi" "mpich")

let policy_versions () =
  let vs = List.map Version.of_string [ "1.0"; "1.5"; "2.0"; "3.0" ] in
  let pick cfg constraint_ =
    Option.map Version.to_string
      (Policy.choose_version cfg ~package:"p" ~candidates:vs
         ~constraint_:(Vlist.of_string constraint_))
  in
  Alcotest.(check (option string)) "newest satisfying" (Some "3.0")
    (pick Config.empty ":");
  Alcotest.(check (option string)) "constraint caps" (Some "1.5")
    (pick Config.empty ":1.9");
  let cfg = Config.of_assoc [ ("packages.p.version", "1.5") ] in
  Alcotest.(check (option string)) "site preference wins" (Some "1.5")
    (pick cfg ":");
  Alcotest.(check (option string)) "preference yields under constraint"
    (Some "3.0")
    (pick cfg "2:");
  (* unknown exact version extrapolates (paper §3.2.3) *)
  Alcotest.(check (option string)) "extrapolated" (Some "9.9")
    (pick Config.empty "9.9");
  Alcotest.(check (option string)) "unsatisfiable range" None
    (pick Config.empty "8:8.5")

let policy_externals () =
  let cfg =
    Config.of_assoc
      [
        ("externals.mvapich2", "mvapich2@1.9%gcc | /opt/vendor/mv2");
        ("externals.broken", "no spec here"); (* no separator *)
        ("externals.wrongname", "othername@1.0 | /opt/x");
        ("externals.noprefix", "noprefix@1.0 |   ");
      ]
  in
  (match Policy.external_for cfg ~package:"mvapich2" with
  | Some (ast, prefix) ->
      Alcotest.(check string) "prefix" "/opt/vendor/mv2" prefix;
      Alcotest.(check string) "spec name" "mvapich2" ast.Ast.root.Ast.name
  | None -> Alcotest.fail "external expected");
  Alcotest.(check bool) "undeclared" true
    (Policy.external_for cfg ~package:"openmpi" = None);
  Alcotest.(check bool) "malformed ignored" true
    (Policy.external_for cfg ~package:"broken" = None);
  Alcotest.(check bool) "name mismatch ignored" true
    (Policy.external_for cfg ~package:"wrongname" = None);
  Alcotest.(check bool) "empty prefix ignored" true
    (Policy.external_for cfg ~package:"noprefix" = None)

let policy_variants () =
  let cfg = Config.of_assoc [ ("packages.p.variants", "+debug~shared") ] in
  Alcotest.(check (list (pair string bool))) "parsed settings"
    [ ("debug", true); ("shared", false) ]
    (Policy.variant_preference cfg ~package:"p");
  Alcotest.(check (list (pair string bool))) "absent" []
    (Policy.variant_preference Config.empty ~package:"p")

let policy_configured_packages () =
  let cfg =
    Config.of_assoc
      [
        ("packages.zlib.version", "1.2.8");
        ("packages.py.six.variants", "+test");
        ("packages.zlib.variants", "~shared");
        ("packages.hdf5.url", "elsewhere");
        ("packages.version", "1.0");
        ("providers.mpi", "openmpi");
        ("arch", "linux-x86_64");
      ]
  in
  Alcotest.(check (list string)) "packages with a version or variant key"
    [ "py.six"; "zlib" ]
    (Policy.configured_packages cfg);
  Alcotest.(check (list string)) "none" []
    (Policy.configured_packages Config.empty)

let () =
  Alcotest.run "config"
    [
      ( "config",
        [
          Alcotest.test_case "format" `Quick parse_format;
          Alcotest.test_case "errors" `Quick parse_errors;
          Alcotest.test_case "layering" `Quick layering;
        ] );
      ("compilers", [ Alcotest.test_case "registry" `Quick registry ]);
      ( "policy",
        [
          Alcotest.test_case "default arch" `Quick policy_arch;
          Alcotest.test_case "compiler order" `Quick policy_compiler_order;
          Alcotest.test_case "provider order" `Quick policy_providers;
          Alcotest.test_case "version choice" `Quick policy_versions;
          Alcotest.test_case "variant preferences" `Quick policy_variants;
          Alcotest.test_case "configured packages" `Quick
            policy_configured_packages;
          Alcotest.test_case "external declarations (§4.4)" `Quick
            policy_externals;
        ] );
    ]
