(* The Merkle-fingerprinted concretization cache: base-fingerprint
   sensitivity to the shared declarative inputs, per-entry fingerprint
   sensitivity to exactly the dependency closure (plus virtual provider
   sets), lookup/store/seed semantics, and validated persistence — a
   recipe edit evicts only the entries that can see it, wholesale
   mismatches and corruption discard everything, and a stale entry is
   never trusted. *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Config = Ospack_config.Config
module Concretizer = Ospack_concretize.Concretizer
module Ccache = Ospack_concretize.Ccache
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Obs = Ospack_obs.Obs
module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json

let base_packages () =
  [
    make_pkg "app"
      [
        version "1.0"; version "2.0";
        depends_on "libx"; depends_on "mpi";
        variant "debug" ~descr:"debug symbols";
      ];
    make_pkg "libx" [ version "0.5"; version "0.6" ];
    make_pkg "mympi"
      [ version "1.9"; version "2.1"; provides "mpi@:2.2" ];
  ]

let bump_libx packages =
  make_pkg "libx" [ version "0.5"; version "0.6"; version "0.7" ]
  :: List.filter (fun p -> p.p_name <> "libx") packages

let compilers = Compilers.create [ Compilers.toolchain "gcc" "4.9.2" ]

let mk_context ?(config = Config.empty) ?(comps = compilers) ?backend packages
    =
  Ccache.context ?backend ~repo:(Repository.create packages) ~compilers:comps
    ~config ()

let base ?config ?comps ?backend packages =
  Ccache.base_fingerprint (mk_context ?config ?comps ?backend packages)

let ctx_of ?(config = Config.empty) ?obs packages =
  Concretizer.make_ctx ~config ?obs ~compilers
    (Repository.create packages)

let parse = Parser.parse_exn

let concretize_ok ?cache ?installed ctx spec =
  match Concretizer.concretize_cached ?cache ?installed ctx (parse spec) with
  | Ok c -> c
  | Error e ->
      Alcotest.failf "%s failed to concretize: %s" spec
        (Ospack_concretize.Cerror.to_string e)

(* --- base fingerprint sensitivity --- *)

let base_deterministic () =
  Alcotest.(check string) "same inputs, same base"
    (base (base_packages ()))
    (base (base_packages ()));
  Alcotest.(check int) "64 hex chars" 64
    (String.length (base (base_packages ())));
  (* recipes are covered per entry, not by the base: a recipe edit must
     not discard the whole cache *)
  Alcotest.(check string) "recipe edit leaves the base alone"
    (base (base_packages ()))
    (base (bump_libx (base_packages ())))

let base_compiler_mutation () =
  let b = base (base_packages ()) in
  let more =
    Compilers.create
      [ Compilers.toolchain "gcc" "4.9.2"; Compilers.toolchain "intel" "15.0" ]
  in
  Alcotest.(check bool) "extra toolchain changes base" true
    (base ~comps:more (base_packages ()) <> b);
  let newer = Compilers.create [ Compilers.toolchain "gcc" "5.3.0" ] in
  Alcotest.(check bool) "toolchain version changes base" true
    (base ~comps:newer (base_packages ()) <> b)

let base_config_mutation () =
  let b = base (base_packages ()) in
  (* any config key participates: the concretization policy reads its
     preferences from here, so covering the config covers the policy *)
  let prefer = Config.of_assoc [ ("prefer_compiler", "intel") ] in
  Alcotest.(check bool) "policy config changes base" true
    (base ~config:prefer (base_packages ()) <> b)

let base_backend_tag () =
  (* the selected concretizer backend extends the algorithm tag: entries
     produced by one backend are never served to another, so switching
     backends is a guaranteed cache miss *)
  let packages = base_packages () in
  let greedy_default = base packages in
  let greedy_explicit = base ~backend:"greedy" packages in
  let clauses = base ~backend:"clauses" packages in
  Alcotest.(check string) "default backend is greedy" greedy_default
    greedy_explicit;
  Alcotest.(check bool) "clauses backend changes base" true
    (clauses <> greedy_default)

(* --- per-entry Merkle fingerprint sensitivity --- *)

let entry_closure_sensitivity () =
  let packages = base_packages () in
  let app = concretize_ok (ctx_of packages) "app@1.0" in
  let lib = concretize_ok (ctx_of packages) "libx" in
  let cx0 = mk_context packages in
  Alcotest.(check int) "64 hex chars" 64
    (String.length (Ccache.entry_fingerprint cx0 app));
  Alcotest.(check string) "deterministic"
    (Ccache.entry_fingerprint cx0 app)
    (Ccache.entry_fingerprint (mk_context packages) app);
  (* adding a version to libx is the classic recipe edit: the old pin
     could be suboptimal, so every closure containing libx must change *)
  let cxb = mk_context (bump_libx packages) in
  Alcotest.(check bool) "libx edit reaches app's closure" true
    (Ccache.entry_fingerprint cxb app <> Ccache.entry_fingerprint cx0 app);
  Alcotest.(check bool) "libx edit reaches the libx entry" true
    (Ccache.entry_fingerprint cxb lib <> Ccache.entry_fingerprint cx0 lib);
  (* a package outside the closure is invisible to the fingerprint *)
  let unrelated = make_pkg "bystander" [ version "1.0" ] :: packages in
  let cxu = mk_context unrelated in
  Alcotest.(check string) "unrelated recipe leaves app alone"
    (Ccache.entry_fingerprint cx0 app)
    (Ccache.entry_fingerprint cxu app)

let entry_provider_sensitivity () =
  (* soundness corner: a new provider of a virtual the closure uses can
     flip provider selection even though the stored DAG never contained
     it, so it must invalidate — while entries that use no such virtual
     survive *)
  let packages = base_packages () in
  let app = concretize_ok (ctx_of packages) "app@1.0" in
  let lib = concretize_ok (ctx_of packages) "libx" in
  let cx0 = mk_context packages in
  let with_rival =
    make_pkg "othermpi" [ version "9.0"; provides "mpi@:3" ] :: packages
  in
  let cxr = mk_context with_rival in
  Alcotest.(check bool) "new mpi provider invalidates app" true
    (Ccache.entry_fingerprint cxr app <> Ccache.entry_fingerprint cx0 app);
  Alcotest.(check string) "new mpi provider leaves libx alone"
    (Ccache.entry_fingerprint cx0 lib)
    (Ccache.entry_fingerprint cxr lib)

(* --- lookup / store / seeds --- *)

let lookup_store_semantics () =
  let obs = Obs.create () in
  let packages = base_packages () in
  let cache = Ccache.create ~obs ~context:(mk_context packages) () in
  let ctx = ctx_of packages in
  let ast = parse "app@1.0+debug" in
  Alcotest.(check bool) "cold lookup misses" true
    (Ccache.lookup cache ast = None);
  let c = concretize_ok ~cache ctx "app@1.0+debug" in
  Alcotest.(check int) "one authoritative entry" 1 (Ccache.length cache);
  (match Ccache.lookup cache ast with
  | Some c' -> Alcotest.(check bool) "hit equals stored" true (Concrete.equal c c')
  | None -> Alcotest.fail "warm lookup should hit");
  (* the same AST spelled differently shares the canonical key *)
  (match Ccache.lookup cache (parse "app +debug @1.0") with
  | Some _ -> ()
  | None -> Alcotest.fail "canonicalized spelling should hit");
  Alcotest.(check int) "misses counted" 2 (Obs.counter obs "ccache.misses");
  Alcotest.(check bool) "hits counted" true (Obs.counter obs "ccache.hits" >= 2);
  (* every node of the stored DAG became an advisory seed... *)
  let seed_names = List.map fst (Ccache.seeds cache) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " seeded") true (List.mem n seed_names))
    [ "app"; "libx"; "mympi" ];
  (* ...but seeds are never whole-query answers: libx has a seed yet its
     own query still misses *)
  Alcotest.(check bool) "seed is not an entry" true
    (Ccache.lookup cache (parse "libx") = None)

let cached_equals_cold () =
  let packages = base_packages () in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let ctx = ctx_of packages in
  List.iter
    (fun spec ->
      let cold =
        match Concretizer.concretize ctx (parse spec) with
        | Ok c -> c
        | Error _ -> Alcotest.failf "%s should concretize" spec
      in
      let first = concretize_ok ~cache ctx spec in
      let warm = concretize_ok ~cache ctx spec in
      Alcotest.(check bool) (spec ^ ": cached = cold") true
        (Concrete.equal cold first && Concrete.equal cold warm))
    [ "app"; "app@1.0"; "app+debug"; "libx"; "mympi@1.9"; "mpi" ]

let reuse_layer () =
  let obs = Obs.create () in
  let packages = base_packages () in
  let cache = Ccache.create ~obs ~context:(mk_context packages) () in
  (* reuse_hits is recorded on the concretizer context's sink *)
  let ctx = ctx_of ~obs packages in
  let installed_spec = concretize_ok ctx "app@1.0" in
  let installed ast =
    if Concrete.satisfies installed_spec ast then Some installed_spec else None
  in
  let entries_before = Ccache.length cache in
  let got = concretize_ok ~cache ~installed ctx "app" in
  Alcotest.(check bool) "reuse returns the installed spec as-is" true
    (Concrete.equal got installed_spec);
  Alcotest.(check int) "reuse hit counted" 1
    (Obs.counter obs "ccache.reuse_hits");
  Alcotest.(check int) "reuse result not stored back" entries_before
    (Ccache.length cache);
  (* a query the store cannot satisfy falls through to the solver *)
  let solved = concretize_ok ~cache ~installed ctx "app@2.0" in
  Alcotest.(check bool) "fallthrough solves fresh" true
    (not (Concrete.equal solved installed_spec))

(* --- persistence and invalidation --- *)

let save_load_roundtrip () =
  let packages = base_packages () in
  let cx = mk_context packages in
  let cache = Ccache.create ~context:cx () in
  let ctx = ctx_of packages in
  let c = concretize_ok ~cache ctx "app@1.0" in
  let fs = Vfs.create () in
  let path = "/store/.spack-db/ccache.json" in
  (match Ccache.save cache fs ~path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Alcotest.(check bool) "no temp file left behind" false
    (Vfs.exists fs (path ^ ".tmp"));
  let obs = Obs.create () in
  let reloaded = Ccache.load ~obs ~context:cx fs ~path in
  Alcotest.(check int) "entries survive" 1 (Ccache.length reloaded);
  (match Ccache.lookup reloaded (parse "app@1.0") with
  | Some c' ->
      Alcotest.(check bool) "reloaded entry identical" true (Concrete.equal c c')
  | None -> Alcotest.fail "reloaded cache should hit");
  Alcotest.(check bool) "seeds rebuilt from entries" true
    (List.mem_assoc "libx" (Ccache.seeds reloaded));
  Alcotest.(check int) "clean load is not an invalidation" 0
    (Obs.counter obs "ccache.invalidations")

let unrelated_edit_survival () =
  (* THE point of per-entry fingerprints: editing one recipe evicts only
     the entries whose closure can see it — unrelated entries stay live
     across the reload, and invalidations count evicted entries only *)
  let packages = base_packages () in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let ctx = ctx_of packages in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "mympi@2.1");
  let fs = Vfs.create () in
  let path = "/store/.spack-db/ccache.json" in
  (match Ccache.save cache fs ~path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  (* libx is in app's closure but not mympi's *)
  let obs = Obs.create () in
  let cx' = mk_context (bump_libx packages) in
  let reloaded = Ccache.load ~obs ~context:cx' fs ~path in
  Alcotest.(check int) "exactly the app entry evicted" 1
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check int) "the unrelated entry survives" 1
    (Ccache.length reloaded);
  Alcotest.(check bool) "survivor is servable" true
    (Ccache.lookup reloaded (parse "mympi@2.1") <> None);
  Alcotest.(check bool) "evicted entry is not served" true
    (Ccache.lookup reloaded (parse "app@1.0") = None);
  (* seeds are harvested from survivors only: no stale libx pin *)
  Alcotest.(check bool) "no seed from the evicted closure" false
    (List.mem_assoc "libx" (Ccache.seeds reloaded))

let wholesale_base_mismatch () =
  let packages = base_packages () in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let ctx = ctx_of packages in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "libx");
  let fs = Vfs.create () in
  let path = "/store/.spack-db/ccache.json" in
  (match Ccache.save cache fs ~path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  (* a config change shifts the base fingerprint: every entry is lost,
     and the counter says so per entry *)
  let prefer = Config.of_assoc [ ("prefer_compiler", "intel") ] in
  let obs = Obs.create () in
  let reloaded =
    Ccache.load ~obs ~context:(mk_context ~config:prefer packages) fs ~path
  in
  Alcotest.(check int) "everything discarded" 0 (Ccache.length reloaded);
  Alcotest.(check int) "one invalidation per lost entry" 2
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check bool) "no stale entry served" true
    (Ccache.lookup reloaded (parse "app@1.0") = None)

let corrupt_cache_ignored () =
  let cx = mk_context (base_packages ()) in
  let fs = Vfs.create () in
  let path = "/store/.spack-db/ccache.json" in
  let load_counting content =
    (match Vfs.write_file fs path content with
    | Ok () -> ()
    | Error e -> Alcotest.failf "write: %s" (Vfs.error_to_string e));
    let obs = Obs.create () in
    let c = Ccache.load ~obs ~context:cx fs ~path in
    (Ccache.length c, Obs.counter obs "ccache.invalidations")
  in
  let b = Ccache.base_fingerprint cx in
  Alcotest.(check (pair int int)) "unparsable JSON" (0, 1)
    (load_counting "{ not json");
  Alcotest.(check (pair int int)) "wrong shape" (0, 1)
    (load_counting "[1, 2, 3]");
  Alcotest.(check (pair int int)) "future format version" (0, 1)
    (load_counting
       (Printf.sprintf "{\"format\": 99, \"base\": %S, \"entries\": []}" b));
  Alcotest.(check (pair int int)) "pre-Merkle format 1 cache" (0, 1)
    (load_counting
       (Printf.sprintf
          "{\"format\": 1, \"fingerprint\": %S, \"entries\": []}" b));
  Alcotest.(check (pair int int)) "entry that is not a concrete spec" (0, 1)
    (load_counting
       (Printf.sprintf
          "{\"format\": 2, \"base\": %S, \"entries\": [{\"spec\": \"app\", \
           \"merkle\": \"deadbeef\", \"concrete\": 42}]}"
          b));
  Alcotest.(check (pair int int)) "tampered merkle field" (0, 1)
    (load_counting
       (let cache = Ccache.create ~context:cx () in
        ignore (concretize_ok ~cache (ctx_of (base_packages ())) "libx");
        (* corrupt the recorded fingerprint without touching the DAG *)
        let rec tamper = function
          | Json.Obj fields ->
              Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "merkle" then (k, Json.String "0deadbeef")
                     else (k, tamper v))
                   fields)
          | Json.List l -> Json.List (List.map tamper l)
          | j -> j
        in
        Json.to_string (tamper (Ccache.to_json cache))));
  (* a missing file is an empty cache, not corruption *)
  let obs = Obs.create () in
  let c = Ccache.load ~obs ~context:cx fs ~path:"/store/absent.json" in
  Alcotest.(check int) "missing file is empty" 0 (Ccache.length c);
  Alcotest.(check int) "missing file is not an invalidation" 0
    (Obs.counter obs "ccache.invalidations")

let mutation_forces_miss_end_to_end () =
  (* the full cycle a user sees: concretize, persist, edit a recipe,
     concretize again — the second run must re-solve, not replay *)
  let packages = base_packages () in
  let fs = Vfs.create () in
  let path = "/store/.spack-db/ccache.json" in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let c1 = concretize_ok ~cache (ctx_of packages) "libx" in
  (match Ccache.save cache fs ~path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Alcotest.(check string) "cold pick is newest" "0.6"
    (Ospack_version.Version.to_string (Concrete.root_node c1).Concrete.version);
  let bumped = bump_libx packages in
  let obs = Obs.create () in
  let cache2 = Ccache.load ~obs ~context:(mk_context bumped) fs ~path in
  let c2 = concretize_ok ~cache:cache2 (ctx_of bumped) "libx" in
  Alcotest.(check int) "stale entry invalidated" 1
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check int) "second run is a miss" 1
    (Obs.counter obs "ccache.misses");
  Alcotest.(check string) "re-solve sees the new version" "0.7"
    (Ospack_version.Version.to_string (Concrete.root_node c2).Concrete.version)

(* --- the incremental renderer --- *)

(* [save] writes fragments rendered once at store/load time; [to_json]
   recomputes every fingerprint and re-serializes every entry, so it is
   the independent reference the written bytes must equal *)
let saved_equals_reference cache =
  let fs = Vfs.create () in
  let path = "/store/.spack-db/ccache.json" in
  let reference = Json.to_string ~indent:2 (Ccache.to_json cache) in
  match Ccache.save cache fs ~path with
  | Error _ -> false
  | Ok () ->
      Vfs.read_file fs path = Ok reference
      && Ccache.to_string cache = reference

let reload ~context cache =
  let fs = Vfs.create () in
  let path = "/store/.spack-db/ccache.json" in
  ignore (Ccache.save cache fs ~path);
  Ccache.load ~context fs ~path

let empty_cache_renders () =
  let cache = Ccache.create ~context:(mk_context (base_packages ())) () in
  Alcotest.(check bool) "empty cache: save = reference" true
    (saved_equals_reference cache)

(* (abstract, concrete) pairs to store: keys and values are drawn
   independently, so a sequence re-stores keys with other values too *)
let store_pool =
  lazy
    (let ctx = ctx_of (base_packages ()) in
     [ "app"; "app@1.0"; "app@2.0"; "app+debug"; "libx"; "libx@0.5";
       "mympi"; "mympi@1.9" ]
     |> List.map (fun s -> (parse s, concretize_ok ctx s))
     |> Array.of_list)

let save_equals_reference_property =
  let n = 8 in
  QCheck.Test.make ~count:200 ~name:"save bytes = reference renderer"
    QCheck.(small_list (pair (int_bound (n - 1)) (int_bound (n - 1))))
    (fun ops ->
      let pool = Lazy.force store_pool in
      let packages = base_packages () in
      let cx = mk_context packages in
      let cache = Ccache.create ~context:cx () in
      List.iter
        (fun (k, v) -> Ccache.store cache (fst pool.(k)) (snd pool.(v)))
        ops;
      (* the model: last value stored per key *)
      let final = Hashtbl.create n in
      List.iter (fun (k, v) -> Hashtbl.replace final k v) ops;
      let sees_libx v =
        List.exists
          (fun (nd : Concrete.node) -> nd.Concrete.name = "libx")
          (Concrete.nodes (snd pool.(v)))
      in
      let survivors =
        Hashtbl.fold (fun _ v acc -> if sees_libx v then acc else acc + 1)
          final 0
      in
      let same = reload ~context:cx cache in
      let edited = reload ~context:(mk_context (bump_libx packages)) cache in
      Ccache.length cache = Hashtbl.length final
      && saved_equals_reference cache
      && Ccache.length same = Ccache.length cache
      && saved_equals_reference same
      && Ccache.length edited = survivors
      && saved_equals_reference edited)

let () =
  Alcotest.run "ccache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "base deterministic" `Quick base_deterministic;
          Alcotest.test_case "compiler mutation" `Quick base_compiler_mutation;
          Alcotest.test_case "config mutation" `Quick base_config_mutation;
          Alcotest.test_case "backend tag" `Quick base_backend_tag;
          Alcotest.test_case "entry closure sensitivity" `Quick
            entry_closure_sensitivity;
          Alcotest.test_case "entry provider sensitivity" `Quick
            entry_provider_sensitivity;
        ] );
      ( "memo",
        [
          Alcotest.test_case "lookup/store/seeds" `Quick lookup_store_semantics;
          Alcotest.test_case "cached = cold" `Quick cached_equals_cold;
          Alcotest.test_case "store-aware reuse" `Quick reuse_layer;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load round-trip" `Quick save_load_roundtrip;
          Alcotest.test_case "unrelated edit survival" `Quick
            unrelated_edit_survival;
          Alcotest.test_case "wholesale base mismatch" `Quick
            wholesale_base_mismatch;
          Alcotest.test_case "corrupt cache ignored" `Quick
            corrupt_cache_ignored;
          Alcotest.test_case "recipe edit forces re-solve" `Quick
            mutation_forces_miss_end_to_end;
          Alcotest.test_case "empty cache renders" `Quick empty_cache_renders;
          QCheck_alcotest.to_alcotest save_equals_reference_property;
        ] );
    ]
