(* The Merkle-fingerprinted concretization cache: base-fingerprint
   sensitivity to the shared declarative inputs, per-entry fingerprint
   sensitivity to exactly the dependency closure (plus virtual provider
   sets), lookup/store/seed semantics, and validated one-file-per-entry
   persistence — a recipe edit evicts only the entries that can see it,
   another base never reads an entry, a corrupt file costs only itself,
   a save writes only what is new and survives a kill at every barrier,
   and a stale entry is never trusted. *)

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

(* each part of the base moves alone, so a lockfile that records the
   parts can name the input that drifted *)
let parts_name_the_drift () =
  let parts ?config ?comps ?backend () =
    Ccache.fingerprint_parts (mk_context ?config ?comps ?backend (base_packages ()))
  in
  let drifted a b =
    List.filter_map
      (fun (part, fp) -> if List.assoc part b = fp then None else Some part)
      a
  in
  let p = parts () in
  Alcotest.(check (list string)) "part names, in base order"
    [ "backend"; "universe"; "toolchains"; "config" ]
    (List.map fst p);
  Alcotest.(check (list string)) "same inputs, same parts" [] (drifted p (parts ()));
  Alcotest.(check (list string)) "config drift" [ "config" ]
    (drifted p (parts ~config:(Config.of_assoc [ ("prefer_compiler", "intel") ]) ()));
  Alcotest.(check (list string)) "toolchain drift" [ "toolchains" ]
    (drifted p
       (parts ~comps:(Compilers.create [ Compilers.toolchain "gcc" "5.3.0" ]) ()));
  Alcotest.(check (list string)) "backend drift" [ "backend" ]
    (drifted p (parts ~backend:"clauses" ()));
  let renamed =
    Ccache.fingerprint_parts
      (Ccache.context ~repo:(Repository.create ~name:"site" (base_packages ()))
         ~compilers ~config:Config.empty ())
  in
  Alcotest.(check (list string)) "universe drift" [ "universe" ] (drifted p renamed)

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

(* Store-aware reuse answers a query an installed spec satisfies, counts
   it, and stores nothing; a query the store cannot satisfy is solved.
   Asked of the greedy memo directly, and through [Commands.spec
   ~reuse:true] on either backend. *)
type reuse_input = {
  ri_name : string;
  ri_obs : Obs.t;  (** where [ccache.reuse_hits] is counted *)
  ri_installed : Concrete.t;
  ri_ask : string -> Concrete.t;  (** a reuse-enabled concretization *)
  ri_entries : unit -> int;
  ri_reusable : string;  (** satisfied by [ri_installed] *)
  ri_unsatisfied : string;  (** not satisfied by [ri_installed] *)
}

let reuse_direct () =
  let obs = Obs.create () in
  let packages = base_packages () in
  let cache = Ccache.create ~obs ~context:(mk_context packages) () in
  (* reuse_hits is recorded on the concretizer context's sink *)
  let ctx = ctx_of ~obs packages in
  let installed_spec = concretize_ok ctx "app@1.0" in
  let installed ast =
    if Concrete.satisfies installed_spec ast then Some installed_spec else None
  in
  {
    ri_name = "Concretizer.concretize_cached";
    ri_obs = obs;
    ri_installed = installed_spec;
    ri_ask = concretize_ok ~cache ~installed ctx;
    ri_entries = (fun () -> Ccache.length cache);
    ri_reusable = "app";
    ri_unsatisfied = "app@2.0";
  }

let reuse_via_commands backend () =
  let module Context = Ospack.Context in
  let module Commands = Ospack.Commands in
  let name = "Commands.spec " ^ Ospack_concretize.Backends.to_string backend in
  let obs = Obs.create () in
  let ctx = Context.create ~obs ~backend () in
  let installed_spec =
    match Commands.install ctx "libelf@0.8.12" with
    | Ok r -> r.Commands.ir_spec
    | Error e -> Alcotest.failf "%s: install: %s" name e
  in
  {
    ri_name = name;
    ri_obs = obs;
    ri_installed = installed_spec;
    ri_ask =
      (fun spec ->
        match Commands.spec ~reuse:true ctx spec with
        | Ok c -> c
        | Error e -> Alcotest.failf "%s: %s: %s" name spec e);
    ri_entries = (fun () -> Ccache.length ctx.Context.ccache);
    ri_reusable = "libelf";
    ri_unsatisfied = "libelf@0.8.13";
  }

let reuse_layer () =
  List.iter
    (fun make ->
      let r = make () in
      let check_int what = Alcotest.(check int) (r.ri_name ^ ": " ^ what) in
      let reuse_hits_before = Obs.counter r.ri_obs "ccache.reuse_hits" in
      let entries_before = r.ri_entries () in
      let got = r.ri_ask r.ri_reusable in
      Alcotest.(check bool)
        (r.ri_name ^ ": reuse returns the installed spec as-is")
        true
        (Concrete.equal got r.ri_installed);
      check_int "reuse hit counted" (reuse_hits_before + 1)
        (Obs.counter r.ri_obs "ccache.reuse_hits");
      check_int "reuse result not stored back" entries_before
        (r.ri_entries ());
      (* a query the store cannot satisfy falls through to the solver *)
      let solved = r.ri_ask r.ri_unsatisfied in
      Alcotest.(check bool) (r.ri_name ^ ": fallthrough solves fresh") true
        (not (Concrete.equal solved r.ri_installed)))
    [
      reuse_direct;
      reuse_via_commands Ospack_concretize.Backends.Greedy;
      reuse_via_commands Ospack_concretize.Backends.Clauses;
    ]

(* A failing query asked twice in one context solves once: the second
   answer comes from the failure memo, on either backend, and reads the
   same as a fresh solve; a fresh context solves again. *)
let failed_query_solves_once () =
  let module Context = Ospack.Context in
  let module Commands = Ospack.Commands in
  let module Backends = Ospack_concretize.Backends in
  let query = "gerris ^mpich@1.4" in
  List.iter
    (fun backend ->
      let name = Backends.to_string backend in
      (* [install] concretizes through the cache and renders the error
         without re-solving *)
      let ask ?fresh ctx =
        match Commands.install ?fresh ctx query with
        | Ok _ -> Alcotest.failf "%s: %s installed" name query
        | Error e -> e
      in
      let solve_counters = [ "concretize.iterations"; "solver.decisions" ] in
      let counts obs = List.map (fun k -> Obs.counter obs k) solve_counters in
      let obs = Obs.create () in
      let ctx = Context.create ~obs ~backend () in
      let first = ask ctx in
      let after_first = counts obs in
      Alcotest.(check bool) (name ^ ": the first ask solves") true
        (Obs.counter obs "concretize.iterations" > 0);
      let second = ask ctx in
      Alcotest.(check string) (name ^ ": same error") first second;
      Alcotest.(check (list int)) (name ^ ": the second ask does not solve")
        after_first (counts obs);
      Alcotest.(check int) (name ^ ": one failure hit") 1
        (Obs.counter obs "ccache.failure_hits");
      Alcotest.(check int) (name ^ ": failures are not entries") 0
        (Ccache.length ctx.Context.ccache);
      Alcotest.(check string) (name ^ ": same text as --fresh")
        (ask ~fresh:true ctx) second;
      (* [spec] renders the conflict from an unseeded solve *)
      let spec ?fresh () =
        Result.map Concrete.to_string (Commands.spec ?fresh ctx query)
      in
      Alcotest.(check (result string string)) (name ^ ": spec = spec --fresh")
        (spec ~fresh:true ()) (spec ());
      let obs' = Obs.create () in
      let ctx' = Context.create ~obs:obs' ~backend () in
      Alcotest.(check string) (name ^ ": a fresh context agrees") first (ask ctx');
      Alcotest.(check bool) (name ^ ": a fresh context solves again") true
        (Obs.counter obs' "concretize.iterations" > 0
        && Obs.counter obs' "ccache.failure_hits" = 0))
    [ Backends.Greedy; Backends.Clauses ]

(* [spec] keeps a failing query's rendered explanation in the failure
   memo: a repeat renders the same text without solving again, on both
   backends, for the §4.5 divergence spec (greedy fails, clauses solve)
   and a true conflict *)
let failed_spec_renders_once () =
  let module Context = Ospack.Context in
  let module Commands = Ospack.Commands in
  let module Backends = Ospack_concretize.Backends in
  List.iter
    (fun (backend, query) ->
      let name = Backends.to_string backend ^ " " ^ query in
      let spec ?fresh ctx =
        Result.map Concrete.to_string (Commands.spec ?fresh ctx query)
      in
      let solve_counters = [ "concretize.iterations"; "solver.decisions" ] in
      let counts obs = List.map (fun k -> Obs.counter obs k) solve_counters in
      let expected = spec ~fresh:true (Context.create ~backend ()) in
      let obs = Obs.create () in
      let ctx = Context.create ~obs ~backend () in
      let first = spec ctx in
      let after_first = counts obs in
      Alcotest.(check (result string string)) (name ^ ": as --fresh renders")
        expected first;
      List.iter
        (fun i ->
          Alcotest.(check (result string string))
            (Printf.sprintf "%s: repeat %d, same text" name i)
            first (spec ctx);
          Alcotest.(check (list int))
            (Printf.sprintf "%s: repeat %d solves nothing" name i)
            after_first (counts obs);
          Alcotest.(check int)
            (Printf.sprintf "%s: repeat %d, failure hits" name i)
            (if Result.is_error first then i else 0)
            (Obs.counter obs "ccache.failure_hits"))
        [ 1; 2 ])
    (List.concat_map
       (fun backend ->
         [ (backend, "mpileaks ^mpi+hwloc ^hwloc@1.9");
           (backend, "gerris ^mpich@1.4") ])
       [ Backends.Greedy; Backends.Clauses ])

(* A failing query solves once wherever its solve is unseeded: the
   clause backend's memoized path and --fresh on either backend render
   the explanation of the failed solve itself. *)
let failing_spec_solves_once () =
  let module Context = Ospack.Context in
  let module Commands = Ospack.Commands in
  let module Backends = Ospack_concretize.Backends in
  let module Universe = Ospack_repo.Universe in
  let query = "gerris ^mpich@1.4" in
  let run ?fresh backend =
    let obs = Obs.create () in
    let ctx = Context.create ~obs ~backend () in
    (Result.map Concrete.to_string (Commands.spec ?fresh ctx query), obs)
  in
  let memoized, memo_obs = run Backends.Clauses in
  let fresh, fresh_obs = run ~fresh:true Backends.Clauses in
  Alcotest.(check bool) "the query fails" true (Result.is_error memoized);
  Alcotest.(check (result string string)) "memoized renders as --fresh"
    fresh memoized;
  Alcotest.(check int) "clauses, memoized: one conflict" 1
    (Obs.counter memo_obs "solver.conflicts");
  Alcotest.(check int) "clauses, --fresh: one conflict" 1
    (Obs.counter fresh_obs "solver.conflicts");
  let one = Obs.create () in
  ignore
    (Backends.solve_full Backends.Greedy
       (Concretizer.make_ctx ~config:Universe.default_config ~obs:one
          ~compilers:Universe.compilers (Universe.repository ()))
       (parse query));
  let _, greedy_obs = run ~fresh:true Backends.Greedy in
  Alcotest.(check int) "greedy, --fresh: one solve's iterations"
    (Obs.counter one "concretize.iterations")
    (Obs.counter greedy_obs "concretize.iterations")

(* --- persistence and invalidation --- *)

(* every backed cache below persists under this root: one file per entry *)
let root = "/cache/concretize"

let backed ?obs fs context = Ccache.create ?obs ~dir:(fs, root) ~context ()

let save_ok cache =
  match Ccache.save cache with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e

let entry_file cache spec =
  match Ccache.entry_path cache (parse spec) with
  | Some p -> p
  | None -> Alcotest.fail "a backed cache has entry paths"

let files_under fs =
  List.filter_map
    (fun (p, k) -> if k = Vfs.File then Some p else None)
    (Vfs.walk fs root)

let save_load_roundtrip () =
  let packages = base_packages () in
  let cx = mk_context packages in
  let fs = Vfs.create () in
  let cache = backed fs cx in
  let ctx = ctx_of packages in
  let c = concretize_ok ~cache ctx "app@1.0" in
  save_ok cache;
  Alcotest.(check (list string)) "one entry file, no temp file left behind"
    [ entry_file cache "app@1.0" ] (files_under fs);
  let obs = Obs.create () in
  let reloaded = backed ~obs fs cx in
  Alcotest.(check int) "opening reads nothing" 0 (Ccache.length reloaded);
  (match Ccache.lookup reloaded (parse "app@1.0") with
  | Some c' ->
      Alcotest.(check bool) "reloaded entry identical" true (Concrete.equal c c')
  | None -> Alcotest.fail "reloaded cache should hit");
  Alcotest.(check int) "read back on lookup" 1 (Ccache.length reloaded);
  Alcotest.(check bool) "seeds rebuilt from read-back entries" true
    (List.mem_assoc "libx" (Ccache.seeds reloaded));
  Alcotest.(check int) "clean read-back is not an invalidation" 0
    (Obs.counter obs "ccache.invalidations")

let unrelated_edit_survival () =
  (* THE point of per-entry fingerprints: editing one recipe evicts only
     the entries whose closure can see it — unrelated entries stay live
     across the reopen, and invalidations count evicted entries only *)
  let packages = base_packages () in
  let fs = Vfs.create () in
  let cache = backed fs (mk_context packages) in
  let ctx = ctx_of packages in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "mympi@2.1");
  save_ok cache;
  (* libx is in app's closure but not mympi's *)
  let obs = Obs.create () in
  let reloaded = backed ~obs fs (mk_context (bump_libx packages)) in
  Alcotest.(check bool) "survivor is servable" true
    (Ccache.lookup reloaded (parse "mympi@2.1") <> None);
  Alcotest.(check bool) "evicted entry is not served" true
    (Ccache.lookup reloaded (parse "app@1.0") = None);
  Alcotest.(check int) "exactly the app entry evicted" 1
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check int) "the unrelated entry survives" 1
    (Ccache.length reloaded);
  Alcotest.(check (list string)) "the stale file is removed"
    [ entry_file reloaded "mympi@2.1" ] (files_under fs);
  (* seeds are harvested from survivors only: no stale libx pin *)
  Alcotest.(check bool) "no seed from the evicted closure" false
    (List.mem_assoc "libx" (Ccache.seeds reloaded))

let wholesale_base_mismatch () =
  let packages = base_packages () in
  let cx = mk_context packages in
  let fs = Vfs.create () in
  let cache = backed fs cx in
  let ctx = ctx_of packages in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "libx");
  save_ok cache;
  (* a config change shifts the base fingerprint, and with it every file
     name: no entry stored under the old base is served, or even read *)
  let prefer = Config.of_assoc [ ("prefer_compiler", "intel") ] in
  let obs = Obs.create () in
  let other = backed ~obs fs (mk_context ~config:prefer packages) in
  List.iter
    (fun spec ->
      Alcotest.(check bool) (spec ^ ": no entry under another base served")
        true
        (Ccache.lookup other (parse spec) = None);
      Alcotest.(check bool) (spec ^ ": another file name") true
        (entry_file other spec <> entry_file cache spec))
    [ "app@1.0"; "libx" ];
  Alcotest.(check int) "nothing read back" 0 (Ccache.length other);
  Alcotest.(check int) "nothing read, so nothing invalidated" 0
    (Obs.counter obs "ccache.invalidations");
  (* the old base's entries are intact for the contexts that own them *)
  Alcotest.(check bool) "old base still served under its own context" true
    (Ccache.lookup (backed fs cx) (parse "app@1.0") <> None)

(* a corrupt entry file of every kind: dropped, removed and counted once,
   while the neighbouring entry keeps being served *)
let corrupt_cache_ignored () =
  let packages = base_packages () in
  let cx = mk_context packages in
  let b = Ccache.base_fingerprint cx in
  let ctx = ctx_of packages in
  let libx = concretize_ok ctx "libx" in
  let libx_json = Json.to_string (Concrete.to_json libx) in
  let merkle = Ccache.entry_fingerprint cx libx in
  let doc ?(format = 2) ?(base = b) ?(spec = "libx") ?(merkle = merkle)
      concrete =
    Printf.sprintf
      "{\"format\": %d, \"base\": %S, \"spec\": %S, \"merkle\": %S, \
       \"concrete\": %s}"
      format base spec merkle concrete
  in
  let lookup_counting content =
    let fs = Vfs.create () in
    let seeded = backed fs cx in
    ignore (concretize_ok ~cache:seeded ctx "app@1.0");
    ignore (concretize_ok ~cache:seeded ctx "libx");
    save_ok seeded;
    let path = entry_file seeded "libx" in
    (match Vfs.write_file fs path content with
    | Ok () -> ()
    | Error e -> Alcotest.failf "write: %s" (Vfs.error_to_string e));
    let obs = Obs.create () in
    let c = backed ~obs fs cx in
    let served = Ccache.lookup c (parse "libx") <> None in
    let neighbour = Ccache.lookup c (parse "app@1.0") <> None in
    let second = Ccache.lookup c (parse "libx") <> None in
    ( served || second || Vfs.exists fs path || not neighbour,
      Obs.counter obs "ccache.invalidations" )
  in
  let case name content =
    Alcotest.(check (pair bool int)) name (false, 1) (lookup_counting content)
  in
  Alcotest.(check (pair bool int)) "an intact file is served" (true, 0)
    (lookup_counting (doc libx_json));
  case "unparsable JSON" "{ not json";
  case "truncated entry"
    (let d = doc libx_json in
     String.sub d 0 (String.length d / 2));
  case "wrong shape" "[1, 2, 3]";
  case "future format version" (doc ~format:99 libx_json);
  case "another base" (doc ~base:(String.make 64 '0') libx_json);
  case "another spec under this key" (doc ~spec:"app" libx_json);
  case "entry that is not a concrete spec" (doc "42");
  case "tampered merkle field" (doc ~merkle:"0deadbeef" libx_json);
  (* a missing file is a plain miss, not corruption *)
  let obs = Obs.create () in
  let c = backed ~obs (Vfs.create ()) cx in
  Alcotest.(check bool) "missing file misses" true
    (Ccache.lookup c (parse "libx") = None);
  Alcotest.(check int) "missing file is not an invalidation" 0
    (Obs.counter obs "ccache.invalidations")

(* the --ccache document is validated eagerly on import: a wholesale
   mismatch loses every entry, a bad entry only itself *)
let import_validates () =
  let packages = base_packages () in
  let cx = mk_context packages in
  let b = Ccache.base_fingerprint cx in
  let import_counting text =
    let obs = Obs.create () in
    let c = Ccache.create ~obs ~context:cx () in
    Ccache.import c text;
    (Ccache.length c, Obs.counter obs "ccache.invalidations")
  in
  let exported =
    let cache = Ccache.create ~context:cx () in
    ignore (concretize_ok ~cache (ctx_of packages) "libx");
    ignore (concretize_ok ~cache (ctx_of packages) "mympi");
    Ccache.to_json cache
  in
  Alcotest.(check (pair int int)) "clean import" (2, 0)
    (import_counting (Json.to_string exported));
  Alcotest.(check (pair int int)) "unparsable JSON" (0, 1)
    (import_counting "{ not json");
  Alcotest.(check (pair int int)) "wrong shape" (0, 1)
    (import_counting "[1, 2, 3]");
  Alcotest.(check (pair int int)) "future format version" (0, 1)
    (import_counting
       (Printf.sprintf "{\"format\": 99, \"base\": %S, \"entries\": []}" b));
  Alcotest.(check (pair int int)) "pre-Merkle format 1 cache" (0, 1)
    (import_counting
       (Printf.sprintf
          "{\"format\": 1, \"fingerprint\": %S, \"entries\": []}" b));
  Alcotest.(check (pair int int)) "base mismatch loses every entry" (0, 2)
    (import_counting
       (Json.to_string
          (match exported with
          | Json.Obj fields ->
              Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "base" then (k, Json.String (String.make 64 '0'))
                     else (k, v))
                   fields)
          | j -> j)));
  (* a tampered entry is dropped without poisoning its neighbour *)
  let tampered =
    match exported with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "entries", Json.List (first :: rest) ->
                   let bad =
                     match first with
                     | Json.Obj f ->
                         Json.Obj
                           (List.map
                              (fun (k, v) ->
                                if k = "merkle" then (k, Json.String "0deadbeef")
                                else (k, v))
                              f)
                     | j -> j
                   in
                   (k, Json.List (bad :: rest))
               | _ -> (k, v))
             fields)
    | j -> j
  in
  Alcotest.(check (pair int int)) "tampered merkle field" (1, 1)
    (import_counting (Json.to_string tampered));
  Alcotest.(check (pair int int)) "entry that is not a concrete spec" (0, 1)
    (import_counting
       (Printf.sprintf
          "{\"format\": 2, \"base\": %S, \"entries\": [{\"spec\": \"app\", \
           \"merkle\": \"deadbeef\", \"concrete\": 42}]}"
          b))

let mutation_forces_miss_end_to_end () =
  (* the full cycle a user sees: concretize, persist, edit a recipe,
     concretize again — the second run must re-solve, not replay *)
  let packages = base_packages () in
  let fs = Vfs.create () in
  let cache = backed fs (mk_context packages) in
  let c1 = concretize_ok ~cache (ctx_of packages) "libx" in
  save_ok cache;
  Alcotest.(check string) "cold pick is newest" "0.6"
    (Ospack_version.Version.to_string (Concrete.root_node c1).Concrete.version);
  let bumped = bump_libx packages in
  let obs = Obs.create () in
  let cache2 = backed ~obs fs (mk_context bumped) in
  let c2 = concretize_ok ~cache:cache2 (ctx_of bumped) "libx" in
  Alcotest.(check int) "stale entry invalidated" 1
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check int) "second run is a miss" 1
    (Obs.counter obs "ccache.misses");
  Alcotest.(check string) "re-solve sees the new version" "0.7"
    (Ospack_version.Version.to_string (Concrete.root_node c2).Concrete.version)

(* --- the persisted bytes --- *)

(* [to_json] recomputes every fingerprint and re-serializes every entry,
   so it is the independent reference: each entry file must equal its
   entry rendered under the document's format and base *)
let reference_files cache =
  match Ccache.to_json cache with
  | Json.Obj fields ->
      let header =
        List.filter (fun (k, _) -> k = "format" || k = "base") fields
      in
      let entries =
        match List.assoc_opt "entries" fields with
        | Some (Json.List l) -> l
        | _ -> []
      in
      List.map
        (fun e ->
          match e with
          | Json.Obj f ->
              let spec =
                match List.assoc_opt "spec" f with
                | Some (Json.String s) -> s
                | _ -> Alcotest.fail "entry without a spec"
              in
              (spec, Json.to_string (Json.Obj (header @ f)))
          | _ -> Alcotest.fail "entry is not an object")
        entries
  | _ -> Alcotest.fail "document is not an object"

let files_equal_reference fs cache =
  List.for_all
    (fun (spec, reference) ->
      Vfs.read_file fs (entry_file cache spec) = Ok reference)
    (reference_files cache)

let empty_cache_renders () =
  let cx = mk_context (base_packages ()) in
  let fs = Vfs.create () in
  let cache = backed fs cx in
  save_ok cache;
  Alcotest.(check (list string)) "an empty save writes nothing" []
    (files_under fs);
  Alcotest.(check string) "empty document"
    (Printf.sprintf "{\n  \"format\": 2,\n  \"base\": %S,\n  \"entries\": []\n}"
       (Ccache.base_fingerprint cx))
    (Json.to_string ~indent:2 (Ccache.to_json cache))

let save_writes_only_new_entries () =
  (* O(Δ) persistence: a save writes the entries stored since the last
     one — one write-then-rename (two barriers) each — and nothing else *)
  let packages = base_packages () in
  let fs = Vfs.create () in
  let cache = backed fs (mk_context packages) in
  let ctx = ctx_of packages in
  let barriers_of_save () =
    Vfs.set_fault_plan fs [];
    save_ok cache;
    let n = Vfs.write_barriers fs in
    Vfs.clear_fault_plan fs;
    n
  in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "libx");
  Alcotest.(check int) "two new entries" 4 (barriers_of_save ());
  Alcotest.(check int) "nothing new" 0 (barriers_of_save ());
  ignore (concretize_ok ~cache ctx "app@1.0");
  Alcotest.(check int) "a hit stores nothing" 0 (barriers_of_save ());
  ignore (concretize_ok ~cache ctx "mympi");
  Alcotest.(check int) "one new entry" 2 (barriers_of_save ());
  Alcotest.(check bool) "files = reference" true (files_equal_reference fs cache)

let save_crash_torture () =
  (* kill a save at every write barrier: a later reader sees each entry's
     old file or its new one — never a torn one, never the stray .tmp *)
  let packages = base_packages () in
  let cx = mk_context packages in
  let ctx = ctx_of packages in
  let old_libx = concretize_ok ctx "libx@0.5" in
  let new_libx = concretize_ok ctx "libx" in
  let app = concretize_ok ctx "app@1.0" in
  let world () =
    let fs = Vfs.create () in
    let before = backed fs cx in
    Ccache.store before (parse "libx") old_libx;
    save_ok before;
    let after = backed fs cx in
    (* sorted key order: app@1.0 is written before libx *)
    Ccache.store after (parse "app@1.0") app;
    Ccache.store after (parse "libx") new_libx;
    (fs, after)
  in
  let check _reference ~kill:k fs after =
    let obs = Obs.create () in
    let reader = backed ~obs fs cx in
    let served spec = Ccache.lookup reader (parse spec) in
    let is expected = function
      | Some c -> Concrete.equal c expected
      | None -> false
    in
    (* entry j (0-based, key order) is new iff both its barriers (2j+1,
       2j+2) completed before the kill *)
    let landed j = k > (2 * j) + 2 in
    (* a kill at an entry's rename barrier strands its complete .tmp *)
    let stranded j = k = (2 * j) + 2 in
    Alcotest.(check bool) (Printf.sprintf "kill %d: .tmp stranded" k)
      (stranded 0 || stranded 1)
      (List.exists
         (fun (j, spec) ->
           stranded j && Vfs.exists fs (entry_file reader spec ^ ".tmp"))
         [ (0, "app@1.0"); (1, "libx") ]);
    Alcotest.(check bool) (Printf.sprintf "kill %d: app old or new" k) true
      (if landed 0 then is app (served "app@1.0")
       else served "app@1.0" = None);
    Alcotest.(check bool) (Printf.sprintf "kill %d: libx old or new" k) true
      (is (if landed 1 then new_libx else old_libx) (served "libx"));
    Alcotest.(check int) (Printf.sprintf "kill %d: nothing torn" k) 0
      (Obs.counter obs "ccache.invalidations");
    (* the failed save kept its unwritten entries queued: a retry
       completes it *)
    save_ok after;
    Alcotest.(check bool) (Printf.sprintf "kill %d: retry lands" k) true
      (files_equal_reference fs after);
    Ok ()
  in
  match Vfs.crash_sweep ~world ~op:Ccache.save ~check () with
  | Error e -> Alcotest.fail e
  | Ok sweep ->
      Alcotest.(check int) "two entries, two barriers each" 4
        sweep.Vfs.sw_barriers;
      Alcotest.(check int) "killed at every barrier" 4
        (List.length sweep.Vfs.sw_kills)

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
      let fs = Vfs.create () in
      let cache = backed fs cx in
      List.iter
        (fun (k, v) -> Ccache.store cache (fst pool.(k)) (snd pool.(v)))
        ops;
      ignore (Ccache.save cache);
      (* the model: last value stored per key *)
      let final = Hashtbl.create n in
      List.iter (fun (k, v) -> Hashtbl.replace final k v) ops;
      let sees_libx v =
        List.exists
          (fun (nd : Concrete.node) -> nd.Concrete.name = "libx")
          (Concrete.nodes (snd pool.(v)))
      in
      let read_back context =
        let c = backed fs context in
        Hashtbl.fold
          (fun k v acc ->
            match Ccache.lookup c (fst pool.(k)) with
            | Some got when Concrete.equal got (snd pool.(v)) -> acc + 1
            | Some _ | None -> acc)
          final 0
      in
      let survivors =
        Hashtbl.fold (fun _ v acc -> if sees_libx v then acc else acc + 1)
          final 0
      in
      Ccache.length cache = Hashtbl.length final
      && List.length (files_under fs) = Hashtbl.length final
      && files_equal_reference fs cache
      && read_back cx = Hashtbl.length final
      && read_back (mk_context (bump_libx packages)) = survivors)

(* --- the reference model: two contexts over one filesystem --- *)

(* Random store/save/lookup/recipe-edit/corrupt-file sequences, checked
   against a model of what each context holds in memory and what each
   entry file holds on the shared filesystem. Both contexts share one
   base; each flips independently between the original and the
   libx-bumped universe. *)
type disk = Absent | Corrupt | Saved of int (* the universe it was made in *)

let model_specs = [| "app"; "app@1.0"; "libx"; "mympi"; "mympi@2.1" |]

let universes = lazy [| base_packages (); bump_libx (base_packages ()) |]

(* cold answers per universe, and whether the closure can see libx *)
let cold =
  lazy
    (Array.map
       (fun packages ->
         Array.map
           (fun spec -> concretize_ok (ctx_of packages) spec)
           model_specs)
       (Lazy.force universes))

let model_property =
  QCheck.Test.make ~count:150
    ~name:"two contexts, one filesystem = reference model"
    QCheck.(
      small_list
        (triple (int_bound 3) (int_bound 1)
           (int_bound (Array.length model_specs - 1))))
    (fun ops ->
      let universes = Lazy.force universes and cold = Lazy.force cold in
      let sees_libx u k =
        List.exists
          (fun (nd : Concrete.node) -> nd.Concrete.name = "libx")
          (Concrete.nodes cold.(u).(k))
      in
      let fs = Vfs.create () in
      let obs = Obs.create () in
      let open_cache u = backed ~obs fs (mk_context universes.(u)) in
      let universe = [| 0; 0 |] in
      let caches = [| open_cache 0; open_cache 0 |] in
      let ctxs = Array.map ctx_of [| universes.(0); universes.(0) |] in
      let disk = Array.make (Array.length model_specs) Absent in
      let mem = Array.init 2 (fun _ -> Hashtbl.create 8) in
      let pending = Array.init 2 (fun _ -> Hashtbl.create 8) in
      let hits = ref 0 and misses = ref 0 and invalidations = ref 0 in
      let step (tag, i, k) =
        match tag with
        | 0 ->
            (* concretize through the cache *)
            let u = universe.(i) in
            let hit =
              Hashtbl.mem mem.(i) k
              ||
              match disk.(k) with
              | Saved v when v = u || not (sees_libx v k) -> true
              | Saved _ | Corrupt ->
                  incr invalidations;
                  disk.(k) <- Absent;
                  false
              | Absent -> false
            in
            if hit then incr hits
            else begin
              incr misses;
              Hashtbl.replace pending.(i) k ()
            end;
            Hashtbl.replace mem.(i) k ();
            let got =
              concretize_ok ~cache:caches.(i) ctxs.(i) model_specs.(k)
            in
            Concrete.equal got cold.(u).(k)
        | 1 ->
            Hashtbl.iter (fun k () -> disk.(k) <- Saved universe.(i)) pending.(i);
            Hashtbl.reset pending.(i);
            Result.is_ok (Ccache.save caches.(i))
        | 2 ->
            (* a recipe edit: the context reopens under the other universe,
               its unsaved entries lost *)
            let u = 1 - universe.(i) in
            universe.(i) <- u;
            caches.(i) <- open_cache u;
            ctxs.(i) <- ctx_of universes.(u);
            Hashtbl.reset mem.(i);
            Hashtbl.reset pending.(i);
            true
        | _ ->
            disk.(k) <- Corrupt;
            let path = entry_file caches.(i) model_specs.(k) in
            Result.is_ok (Vfs.write_file fs path "{\"format\": 2, \"spec\"")
      in
      List.for_all
        (fun op ->
          step op
          && Obs.counter obs "ccache.hits" = !hits
          && Obs.counter obs "ccache.misses" = !misses
          && Obs.counter obs "ccache.invalidations" = !invalidations)
        ops)

(* --- the seed map: generated query sequences on one context --- *)

module Universe = Ospack_repo.Universe
module Ast = Ospack_spec.Ast
module Vlist = Ospack_version.Vlist

(* one dependency family, so seeds overlap: plain, %compiler and
   @version roots; ^dep constraints that contradict the pins earlier
   queries left (libelf@0.8.13, mvapich2@2.0, gcc@4.9.2, ...); and a
   root that is also a ^dep ([libelf ^libelf@0.8.12]) *)
let seed_roots =
  [| "mpileaks"; "mpileaks@1.0"; "mpileaks%intel"; "callpath";
     "callpath@0.9"; "dyninst%gcc@4.7.3"; "dyninst@8.1.1"; "libdwarf";
     "libdwarf%intel"; "libelf"; "libelf@0.8.10"; "hdf5"; "hdf5@1.8.12";
     "gerris"; "mvapich2@1.9"; "boost" |]

let seed_deps =
  [| ""; " ^libelf@0.8.12"; " ^libelf@0.8.10"; " ^mvapich2@1.9";
     " ^openmpi"; " ^mpich@3.0.3"; " ^libdwarf%intel"; " ^boost@1.54.0";
     " ^dyninst@8.1.2"; " ^zlib@1.2.7"; " ^libelf ^libdwarf@20130207" |]

(* [None] saves and reopens the cache on the same filesystem *)
let seed_ops =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (1, return None);
          ( 6,
            map Option.some
              (pair
                 (int_bound (Array.length seed_roots - 1))
                 (int_bound (Array.length seed_deps - 1))) );
        ])
  in
  let print = function
    | None -> "save+reopen"
    | Some (i, j) -> seed_roots.(i) ^ seed_deps.(j)
  in
  make ~print:(Print.list print) Gen.(list_size (1 -- 25) op)

(* the reference seed filter: one pass over every seed, checking the
   root constraint for the root's name and the ^dep constraint for any
   other name *)
let reference_seed cache (ast : Ast.t) =
  List.filter
    (fun (name, node) ->
      if name = ast.Ast.root.Ast.name then
        Concrete.node_satisfies node ast.Ast.root
      else
        match Ast.Smap.find_opt name ast.Ast.deps with
        | Some c -> Concrete.node_satisfies node c
        | None -> true)
    (Ccache.seeds cache)

let node_repr (n : Concrete.node) =
  Printf.sprintf "%s deps=%s provided=%s" (Concrete.node_to_string n)
    (String.concat "," n.Concrete.deps)
    (String.concat ","
       (List.map
          (fun (v, vl) -> v ^ "@" ^ Vlist.to_string vl)
          n.Concrete.provided))

let seed_map_property =
  QCheck.Test.make ~count:100
    ~name:"seed map = fold of stored entries, seed_for = reference filter"
    seed_ops
    (fun ops ->
      let repo = Universe.repository () in
      let config = Universe.default_config
      and compilers = Universe.compilers in
      let obs = Obs.create () in
      let ctx = Concretizer.make_ctx ~config ~obs ~compilers repo in
      let fs = Vfs.create () in
      let cache =
        ref (backed ~obs fs (Ccache.context ~repo ~compilers ~config ()))
      in
      (* the model: keys in the open cache's memory, keys saved on disk,
         keys stored since the last save, and every DAG the open cache
         took in (stored or read back), oldest first *)
      let mem = Hashtbl.create 16
      and disk = Hashtbl.create 16
      and pending = Hashtbl.create 16 in
      let taken = ref [] in
      (* keys whose solve failed in the open cache: the failure memo *)
      let failed = Hashtbl.create 16 in
      let fresh_answers = Hashtbl.create 16 in
      let fresh key ast =
        match Hashtbl.find_opt fresh_answers key with
        | Some r -> r
        | None ->
            let r = Concretizer.concretize ctx ast in
            Hashtbl.replace fresh_answers key r;
            r
      in
      let same_answer a b =
        match (a, b) with
        | Ok x, Ok y -> Concrete.equal x y
        | Error x, Error y ->
            Ospack_concretize.Cerror.(to_string x = to_string y)
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      let seeds_match () =
        let folded =
          List.fold_left
            (fun m c ->
              List.fold_left
                (fun m (n : Concrete.node) ->
                  Concrete.Smap.add n.Concrete.name n m)
                m (Concrete.nodes c))
            Concrete.Smap.empty (List.rev !taken)
        in
        let repr m = List.map (fun (k, n) -> (k, node_repr n)) m in
        let seeds = Ccache.seeds !cache in
        repr seeds = repr (Concrete.Smap.bindings folded)
        && seeds = Concrete.Smap.bindings (Ccache.seed_map !cache)
        && Ccache.seed_count !cache = Concrete.Smap.cardinal folded
      in
      let step = function
        | None ->
            Result.is_ok (Ccache.save !cache)
            && begin
                 Hashtbl.iter (fun k () -> Hashtbl.replace disk k ()) pending;
                 Hashtbl.reset pending;
                 Hashtbl.reset mem;
                 Hashtbl.reset failed;
                 taken := [];
                 (* a fresh context reads the sharded directory back *)
                 cache :=
                   backed ~obs fs (Ccache.context ~repo ~compilers ~config ());
                 true
               end
        | Some (i, j) ->
            let ast = parse (seed_roots.(i) ^ seed_deps.(j)) in
            let key = Ccache.key_of ast in
            let expected = fresh key ast in
            let seed, count = Concretizer.seed_for !cache ast in
            let reference = reference_seed !cache ast in
            let seed_ok =
              count = List.length reference
              && List.equal
                   (fun (a, n) (b, m) -> a = b && n == m)
                   (Concrete.Smap.bindings seed)
                   reference
            in
            let in_mem = Hashtbl.mem mem key in
            let on_disk = (not in_mem) && Hashtbl.mem disk key in
            let memo_failed = Hashtbl.mem failed key in
            let delta name f =
              let before = Obs.counter obs name in
              let r = f () in
              (r, Obs.counter obs name - before)
            in
            let ((got, pins), failure_hits), iterations =
              delta "concretize.iterations" (fun () ->
                  delta "ccache.failure_hits" (fun () ->
                      delta "ccache.seeded_pins" (fun () ->
                          Concretizer.concretize_cached ~cache:!cache ctx ast)))
            in
            (match got with
            | Ok c when not in_mem ->
                taken := c :: !taken;
                Hashtbl.replace mem key ();
                if not on_disk then Hashtbl.replace pending key ()
            | Ok _ -> ()
            | Error _ -> Hashtbl.replace failed key ());
            (* a failure asked again in the same cache answers from the
               memo: no seeding, no iteration *)
            seed_ok
            && same_answer got expected
            && pins = (if in_mem || on_disk || memo_failed then 0 else count)
            && failure_hits = (if memo_failed then 1 else 0)
            && ((not memo_failed) || iterations = 0)
      in
      List.for_all (fun op -> step op && seeds_match ()) ops)

(* --- the context's fingerprint memo --- *)

let entries_of cache =
  match Json.member "entries" (Ccache.to_json cache) with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "to_json has no entries"

(* every universe answer of the spec-stream population and an
   environment's meta entry: the memoized fingerprint of each stored
   entry equals the one [to_json] recomputes from scratch *)
let memo_equals_scratch () =
  let module Context = Ospack.Context in
  let module Multiroot = Ospack_concretize.Multiroot in
  let module Backends = Ospack_concretize.Backends in
  let module Version = Ospack_version.Version in
  let ctx = Context.create () in
  List.iter
    (fun pkg ->
      let n = pkg.p_name in
      let newest =
        List.sort (fun a b -> Version.compare b a) (known_versions pkg)
      in
      List.iter
        (fun q -> ignore (Ospack.spec ctx q))
        ([ n; n ^ " %gcc"; n ^ " %intel" ]
        @ match newest with v :: _ -> [ n ^ "@" ^ Version.to_string v ] | [] -> []))
    (Repository.all_packages ctx.Context.repo);
  (match
     Multiroot.solve ~cache:ctx.Context.ccache ~backend:Backends.Greedy
       ~config:ctx.Context.config ~compilers:ctx.Context.compilers
       ~repo:ctx.Context.repo
       (List.map parse [ "mpileaks"; "dyninst"; "gerris" ])
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unified solve: %s" (Multiroot.error_to_string e));
  let cx = Ccache.context_of ctx.Context.ccache in
  let entries = entries_of ctx.Context.ccache in
  Alcotest.(check bool) "most of the population stored" true
    (List.length entries > 900);
  let field name e =
    match Option.bind (Json.member name e) Json.get_string with
    | Some v -> v
    | None -> Alcotest.failf "entry without %s" name
  in
  Alcotest.(check bool) "the env meta entry is stored" true
    (List.exists
       (fun e -> Astring.String.is_prefix ~affix:"env-roots-" (field "spec" e))
       entries);
  List.iter
    (fun e ->
      match Option.map Concrete.of_json (Json.member "concrete" e) with
      | Some (Ok c) ->
          Alcotest.(check string) (field "spec" e) (field "merkle" e)
            (Ccache.entry_fingerprint cx c)
      | Some (Error _) | None -> Alcotest.fail "entry without a concrete DAG")
    entries

(* the same node names with another provided set hash differently, so
   the memo's key must carry the provided virtuals *)
let memo_key_sees_provided () =
  let packages = base_packages () in
  let repo = Repository.create packages in
  let context () =
    Ccache.context ~repo ~compilers ~config:Config.empty ()
  in
  let cx = context () in
  let scratch c = Ccache.entry_fingerprint (context ()) c in
  let with_mpi = concretize_ok (ctx_of packages) "app" in
  let without_mpi =
    match
      Concrete.make ~root:"app"
        (List.map
           (fun (n : Concrete.node) ->
             if n.Concrete.name = "mympi" then { n with Concrete.provided = [] }
             else n)
           (Concrete.nodes with_mpi))
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "the edited DAG is invalid"
  in
  Alcotest.(check bool) "the two closures hash differently" true
    (scratch with_mpi <> scratch without_mpi);
  Alcotest.(check string) "first closure" (scratch with_mpi)
    (Ccache.entry_fingerprint cx with_mpi);
  Alcotest.(check string) "same names, no provided virtual"
    (scratch without_mpi)
    (Ccache.entry_fingerprint cx without_mpi)

(* two site layers of the same name share a base, so the second reads
   the first's entries back: the memo is the new context's own, and an
   edited site recipe evicts exactly the entries whose closure holds it *)
let site_edit_invalidates_its_closure () =
  let module Context = Ospack.Context in
  let obs = Obs.create () in
  let base = Context.create ~obs () in
  let queries = [ "libelf"; "libdwarf"; "dyninst"; "zlib"; "hwloc"; "cmake" ] in
  let site versions =
    Context.with_site_packages base
      [ make_pkg "libelf" (List.map (fun v -> version v) versions) ]
  in
  let first = site [ "9.9" ] in
  let sees_libelf =
    List.filter
      (fun q ->
        match Ospack.spec first q with
        | Ok c -> Option.is_some (Concrete.node c "libelf")
        | Error e -> Alcotest.failf "%s: %s" q e)
      queries
  in
  Alcotest.(check bool) "some closures hold libelf, some do not" true
    (sees_libelf <> [] && List.length sees_libelf < List.length queries);
  let count name = Obs.counter obs name in
  let hits = count "ccache.hits" and evicted = count "ccache.invalidations" in
  let edited = site [ "9.9"; "9.8" ] in
  List.iter (fun q -> ignore (Ospack.spec edited q)) queries;
  Alcotest.(check int) "entries that see the edit are evicted"
    (List.length sees_libelf)
    (count "ccache.invalidations" - evicted);
  Alcotest.(check int) "the others are read back"
    (List.length queries - List.length sees_libelf)
    (count "ccache.hits" - hits)

let () =
  Alcotest.run "ccache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "base deterministic" `Quick base_deterministic;
          Alcotest.test_case "compiler mutation" `Quick base_compiler_mutation;
          Alcotest.test_case "config mutation" `Quick base_config_mutation;
          Alcotest.test_case "backend tag" `Quick base_backend_tag;
          Alcotest.test_case "parts name the drift" `Quick parts_name_the_drift;
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
          Alcotest.test_case "failed query solves once" `Quick
            failed_query_solves_once;
          Alcotest.test_case "failed spec renders once" `Quick
            failed_spec_renders_once;
          Alcotest.test_case "failing spec solves once" `Quick
            failing_spec_solves_once;
        ] );
      ( "closure memo",
        [
          Alcotest.test_case "memo equals from scratch" `Quick
            memo_equals_scratch;
          Alcotest.test_case "key sees provided virtuals" `Quick
            memo_key_sees_provided;
          Alcotest.test_case "site edit evicts its closure" `Quick
            site_edit_invalidates_its_closure;
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
          Alcotest.test_case "import validates every entry" `Quick
            import_validates;
          Alcotest.test_case "recipe edit forces re-solve" `Quick
            mutation_forces_miss_end_to_end;
          Alcotest.test_case "empty cache renders" `Quick empty_cache_renders;
          Alcotest.test_case "save writes only new entries" `Quick
            save_writes_only_new_entries;
          QCheck_alcotest.to_alcotest save_equals_reference_property;
          QCheck_alcotest.to_alcotest model_property;
          QCheck_alcotest.to_alcotest seed_map_property;
        ] );
      ( "crash safety",
        [
          Alcotest.test_case "save killed at every write barrier" `Quick
            save_crash_torture;
        ] );
    ]
