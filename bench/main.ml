(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation.

     Table 1 — site naming conventions
     Table 2 — spec syntax examples
     Table 3 — the ARES nightly configuration matrix (36 configs)
     Fig. 5  — versioned virtual providers (sanity)
     Fig. 8  — concretization time vs package DAG size (245 packages)
     Fig. 9  — sub-DAG sharing across MPI configurations
     Fig. 10 — simulated build time: wrappers x filesystem
     Fig. 11 — overhead percentages vs the paper's measurements
     ablation — greedy vs the complete clause backend (§4.5)
     micro    — bechamel micro-benchmarks of the hot paths

   Absolute times for Fig. 10/11 come from the calibrated build simulator
   (the substrate is not the authors' testbed); shapes and orderings are
   the reproduction target. Fig. 8 times are real wall-clock measurements
   of this implementation. *)

module Ast = Ospack_spec.Ast
module Parser = Ospack_spec.Parser
module Printer = Ospack_spec.Printer
module Concrete = Ospack_spec.Concrete
module Constraint_ops = Ospack_spec.Constraint_ops
module Repository = Ospack_package.Repository
module Config = Ospack_config.Config
module Concretizer = Ospack_concretize.Concretizer
module Layout = Ospack_layout.Layout
module Fsmodel = Ospack_buildsim.Fsmodel
module Vfs = Ospack_vfs.Vfs
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Universe = Ospack_repo.Universe
module Pkgs_ares = Ospack_repo.Pkgs_ares
module Platforms = Ospack_repo.Platforms
module Version = Ospack_version.Version
module Sha256 = Ospack_hash.Sha256
module Backends = Ospack_concretize.Backends
module I = Ospack_concretize.Concretizer_intf
module Cerror = Ospack_concretize.Cerror
module Ccache = Ospack_concretize.Ccache
module Package = Ospack_package.Package
module Buildcache = Ospack_store.Buildcache
module Cachefleet = Ospack_store.Cachefleet
module Obs = Ospack_obs.Obs
module Profile = Ospack_obs.Profile
module Baseline = Ospack_obs.Baseline
module Json = Ospack_json.Json
module Context = Ospack.Context
module Environment = Ospack.Environment

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let universe_ctx ?(overrides = []) () =
  Concretizer.make_ctx
    ~config:(Config.layer [ Config.of_assoc overrides; Universe.default_config ])
    ~compilers:Universe.compilers (Universe.repository ())

(* a failed step aborts the run, naming the step; [ok_with] renders a
   typed error first *)
let ok_with show label = function
  | Ok x -> x
  | Error e -> failwith (label ^ ": " ^ show e)

let ok label = ok_with Fun.id label

(* an installer over the default universe, on a fresh in-memory
   filesystem unless [vfs] is given *)
let universe_installer ?config ?fs ?use_wrappers ?install_root ?cache ?obs
    ?(vfs = Vfs.create ()) () =
  Installer.create ?config ?fs ?use_wrappers ?install_root ?cache ?obs ~vfs
    ~repo:(Universe.repository ()) ~compilers:Universe.compilers ()

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: software organization of various HPC sites";
  let ctx = universe_ctx () in
  match Concretizer.concretize_string ctx "mpileaks ^mvapich2@1.9" with
  | Error e -> Printf.printf "concretization failed: %s\n" e
  | Ok c ->
      Printf.printf "%-24s %s\n" "Site" "Install prefix for one mpileaks build";
      List.iter
        (fun (name, scheme) ->
          let root =
            match scheme with
            | Layout.Llnl_usr_global -> "/usr/global/tools"
            | Layout.Llnl_usr_local -> "/usr/local/tools"
            | _ -> ""
          in
          Printf.printf "%-24s %s\n" name (Layout.path scheme ~root c))
        Layout.all_schemes

let table2 () =
  section "Table 2: spec syntax examples";
  let examples =
    [
      ("mpileaks", "package, no constraints");
      ("mpileaks@1.1.2", "version 1.1.2");
      ("mpileaks@1.1.2 %gcc", "built with gcc at the default version");
      ("mpileaks@1.1.2 %intel@14.1 +debug", "intel 14.1, debug variant");
      ("mpileaks@1.1.2 =bgq", "built for Blue Gene/Q");
      ("mpileaks@1.1.2 ^mvapich2@1.9", "using mvapich2 1.9 for MPI");
      ( "mpileaks @1.2:1.4 %gcc@4.7.3 -debug =bgq ^callpath @1.1 %gcc@4.7.3 \
         ^openmpi @1.4.7",
        "the fully-constrained example" );
    ]
  in
  List.iter
    (fun (spec, meaning) ->
      match Parser.parse spec with
      | Ok ast ->
          Printf.printf "OK  %-50s  # %s\n    normalized: %s\n" spec meaning
            (Printer.to_string ast)
      | Error e -> Printf.printf "ERR %-50s  %s\n" spec e)
    examples

let table3 () =
  section "Table 3: ARES configurations (paper: 36 nightly configs)";
  let cells =
    [
      (Platforms.linux, "%gcc", "mvapich", [ `Current; `Previous; `Lite; `Dev ]);
      (Platforms.linux, "%gcc", "mvapich2", [ `Current; `Previous; `Lite; `Dev ]);
      (Platforms.linux, "%gcc", "openmpi", [ `Current; `Previous; `Lite; `Dev ]);
      (Platforms.linux, "%intel@14.0.3", "mvapich2",
       [ `Current; `Previous; `Lite; `Dev ]);
      (Platforms.linux, "%intel@15.0.1", "mvapich2",
       [ `Current; `Previous; `Lite; `Dev ]);
      (Platforms.linux, "%pgi", "mvapich2", [ `Dev ]);
      (Platforms.linux, "%clang", "mvapich2", [ `Current; `Previous; `Lite; `Dev ]);
      (Platforms.bgq, "%gcc", "bgq-mpi", [ `Current; `Previous; `Lite; `Dev ]);
      (Platforms.bgq, "%clang", "bgq-mpi", [ `Current; `Lite; `Dev ]);
      (Platforms.cray_xe6, "%gcc", "cray-mpi", [ `Current; `Previous; `Lite; `Dev ]);
    ]
  in
  let letter = function
    | `Current -> "C"
    | `Previous -> "P"
    | `Lite -> "L"
    | `Dev -> "D"
  in
  let ok = ref 0 and bad = ref 0 in
  Printf.printf "%-12s %-15s %-9s configs\n" "arch" "compiler" "mpi";
  List.iter
    (fun (arch, compiler, mpi, configs) ->
      let ctx =
        universe_ctx ~overrides:[ ("arch", arch); ("providers.mpi", mpi) ] ()
      in
      let cells_out =
        List.map
          (fun config ->
            let spec =
              Printf.sprintf "%s %s =%s ^%s"
                (Pkgs_ares.spec_of_config config)
                compiler arch mpi
            in
            match Concretizer.concretize_string ctx spec with
            | Ok _ ->
                incr ok;
                letter config
            | Error _ ->
                incr bad;
                letter config ^ "!")
          configs
      in
      Printf.printf "%-12s %-15s %-9s %s\n" arch compiler mpi
        (String.concat " " cells_out))
    cells;
  Printf.printf "-> %d concretized, %d failed (paper: 36)\n" !ok !bad

let fig5 () =
  section "Fig. 5 sanity: versioned virtual dependencies";
  let ctx = universe_ctx () in
  let show spec =
    match Concretizer.concretize_string ctx spec with
    | Ok c ->
        let provider =
          List.find_opt
            (fun n -> List.mem_assoc "mpi" n.Concrete.provided)
            (Concrete.nodes c)
        in
        Printf.printf "%-24s -> %s\n" spec
          (match provider with
          | Some n -> Concrete.node_to_string n
          | None -> "(no mpi in DAG)")
    | Error e -> Printf.printf "%-24s -> ERROR %s\n" spec e
  in
  show "mpileaks";
  show "mpileaks ^mpich";
  show "gerris" (* needs mpi@2: *);
  show "gerris ^mpich" (* forces mpich@3.x *)

(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fig8 () =
  section "Fig. 8: concretization time vs package DAG size (245 packages)";
  let repo = Universe.repository () in
  let ctx = universe_ctx () in
  let trials = 5 in
  let samples =
    List.filter_map
      (fun name ->
        let spec =
          match name with
          | "bgq-mpi" -> "bgq-mpi =bgq %gcc"
          | "cray-mpi" -> "cray-mpi =cray_xe6 %gcc"
          | n -> n
        in
        match Parser.parse spec with
        | Error _ -> None
        | Ok ast -> (
            match Concretizer.concretize ctx ast with
            | Error _ -> None
            | Ok c ->
                let _, dt =
                  time_it (fun () ->
                      for _ = 1 to trials do
                        ignore (Concretizer.concretize ctx ast)
                      done)
                in
                Some (Concrete.node_count c, dt /. float_of_int trials)))
      (Repository.package_names repo)
  in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun (n, dt) ->
      let sum, count =
        Option.value (Hashtbl.find_opt buckets n) ~default:(0.0, 0)
      in
      Hashtbl.replace buckets n (sum +. dt, count + 1))
    samples;
  Printf.printf "%-10s %-10s %s\n" "DAG nodes" "packages" "mean concretize time";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets []
  |> List.sort compare
  |> List.iter (fun (n, (sum, count)) ->
         Printf.printf "%-10d %-10d %.3f ms\n" n count
           (1000.0 *. sum /. float_of_int count));
  let worst = List.fold_left (fun m (_, dt) -> max m dt) 0.0 samples in
  let biggest = List.fold_left (fun m (n, _) -> max m n) 0 samples in
  Printf.printf
    "-> %d packages concretized; largest DAG %d nodes; worst time %.3f ms\n"
    (List.length samples) biggest (1000.0 *. worst);
  Printf.printf "   paper envelope: <4 s at ~50 nodes -> %s\n"
    (if worst < 4.0 then "within envelope" else "OUTSIDE ENVELOPE")

let fig9 () =
  section "Fig. 9: sub-DAG sharing between mpich and openmpi builds";
  let inst = universe_installer () in
  let ctx = universe_ctx () in
  let install spec =
    let c = ok spec (Concretizer.concretize_string ctx spec) in
    ok spec (Installer.install inst c)
  in
  let first = install "mpileaks ^mvapich2@1.9" in
  let t_first = Installer.total_build_seconds inst in
  let second = install "mpileaks ^openmpi" in
  let t_total = Installer.total_build_seconds inst in
  let reused = List.filter (fun o -> o.Installer.o_reused) second in
  Printf.printf "first install:  %d nodes built, %.1f simulated s\n"
    (List.length first) t_first;
  Printf.printf
    "second install: %d nodes reused, %d rebuilt, %.1f more simulated s\n"
    (List.length reused)
    (List.length second - List.length reused)
    (t_total -. t_first);
  Printf.printf
    "-> naive (no sharing) would simulate ~%.1f s; sharing spent %.1f s\n"
    (2.0 *. t_first) t_total

(* ------------------------------------------------------------------ *)

(* the seven packages of Figs. 10/11, with the paper's measured overheads *)
let fig10_packages =
  [
    (* name, paper NFS+wrappers overhead %, paper wrappers-only overhead % *)
    ("libelf", 48.0, 9.5);
    ("libpng", 62.7, 9.4);
    ("mpileaks", 35.6, 12.3);
    ("libdwarf", 17.7, 6.6);
    ("python", 46.4, 10.2);
    ("dyninst", 4.9, -0.4);
    ("lapack", 16.6, 6.0);
  ]

(* --- scaffolding shared by the document modes ------------------------ *)

let parse s = ok s (Parser.parse s)

(* the byte-identity probe of a concrete spec: JSON plus rendered tree *)
let render c =
  Json.to_string (Concrete.to_json c)
  ^ "\n" ^ Concrete.tree_string c

(* one concretizer context over the default universe, built on first use *)
let universe_cctx =
  lazy
    (Concretizer.make_ctx ~config:Universe.default_config
       ~obs:(Obs.create ()) ~compilers:Universe.compilers
       (Universe.repository ()))

let concrete s =
  ok_with Cerror.to_string s
    (Concretizer.concretize (Lazy.force universe_cctx) (parse s))

(* the informational real time of a document step *)
let wall_ms secs = ("wall_ms", Json.fixed ~decimals:3 (1000.0 *. secs))

(* the 21-query suite of the concretize, solve and store modes: each
   Fig. 10 package bare, with %gcc, and pinned to its newest version *)
let query_suite () =
  let newest name =
    match Repository.find (Universe.repository ()) name with
    | Some p -> (
        match Package.known_versions p with
        | v :: _ -> Version.to_string v
        | [] -> failwith (name ^ ": no versions"))
    | None -> failwith ("unknown package " ^ name)
  in
  List.concat_map
    (fun (name, _, _) ->
      [ name; name ^ " %gcc"; Printf.sprintf "%s@%s" name (newest name) ])
    fig10_packages

(* the simulated seconds of one package's root build on [fs], with or
   without compiler wrappers; an enabled [obs] records the concretize and
   install phases *)
let build_seconds ?(obs = Obs.disabled) name fs use_wrappers =
  let cctx =
    Concretizer.make_ctx ~config:Universe.default_config ~obs
      ~compilers:Universe.compilers (Universe.repository ())
  in
  let spec =
    ok name
      (Obs.span obs ~cat:"concretize" "concretize" (fun () ->
           Concretizer.concretize_string cctx name))
  in
  let inst = universe_installer ~fs ~use_wrappers ~obs () in
  let outcomes =
    ok name
      (Obs.span obs ~cat:"install" "install" (fun () ->
           Installer.install inst spec))
  in
  let root = List.nth outcomes (List.length outcomes - 1) in
  root.Installer.o_record.Database.r_build_seconds

type build_times = { nfs_w : float; tmp_w : float; tmp_nw : float }

let simulate_builds () =
  List.map
    (fun (name, _, _) ->
      ( name,
        {
          nfs_w = build_seconds name Fsmodel.nfs true;
          tmp_w = build_seconds name Fsmodel.tmpfs true;
          tmp_nw = build_seconds name Fsmodel.tmpfs false;
        } ))
    fig10_packages

let fig10 times =
  section "Fig. 10: build time on NFS and temp, with and without wrappers";
  Printf.printf "%-10s %14s %14s %14s   (simulated seconds)\n" "package"
    "wrappers,NFS" "wrappers,tmp" "no-wrap,tmp";
  List.iter
    (fun (name, t) ->
      Printf.printf "%-10s %14.1f %14.1f %14.1f\n" name t.nfs_w t.tmp_w
        t.tmp_nw)
    times;
  let ordered =
    List.for_all
      (fun (_, t) -> t.nfs_w > t.tmp_w && t.tmp_w >= t.tmp_nw *. 0.99)
      times
  in
  Printf.printf "-> NFS > tmp and wrappers >= native for every package: %b\n"
    ordered

let fig11 times =
  section "Fig. 11: build overhead of NFS and compiler wrappers (% of native)";
  Printf.printf "%-10s %18s %18s %16s %16s\n" "package" "NFS+wrap (ours)"
    "NFS+wrap (paper)" "wrap (ours)" "wrap (paper)";
  let avg_nfs = ref 0.0 and avg_wrap = ref 0.0 in
  List.iter2
    (fun (name, t) (_, paper_nfs, paper_wrap) ->
      let nfs_over = 100.0 *. ((t.nfs_w /. t.tmp_nw) -. 1.0) in
      let wrap_over = 100.0 *. ((t.tmp_w /. t.tmp_nw) -. 1.0) in
      avg_nfs := !avg_nfs +. nfs_over;
      avg_wrap := !avg_wrap +. wrap_over;
      Printf.printf "%-10s %17.1f%% %17.1f%% %15.1f%% %15.1f%%\n" name nfs_over
        paper_nfs wrap_over paper_wrap)
    times fig10_packages;
  let n = float_of_int (List.length times) in
  Printf.printf
    "-> mean overheads: NFS+wrappers %.1f%% (paper ~33%%), wrappers %.1f%% \
     (paper ~10%%)\n"
    (!avg_nfs /. n) (!avg_wrap /. n);
  let wrap_of name =
    let _, t = List.find (fun (n, _) -> n = name) times in
    (t.tmp_w /. t.tmp_nw) -. 1.0
  in
  Printf.printf "-> dyninst has the smallest wrapper overhead: %b\n"
    (List.for_all
       (fun (name, _, _) ->
         name = "dyninst" || wrap_of "dyninst" <= wrap_of name)
       fig10_packages)

(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: greedy vs the clause backend (§4.5)";
  let family n =
    let open Ospack_package.Package in
    let providers =
      List.init n (fun i ->
          make_pkg
            (Printf.sprintf "impl-%c" (Char.chr (Char.code 'a' + i)))
            [
              version "1.0";
              provides "iface";
              depends_on (if i = n - 1 then "leafdep@2.0" else "leafdep@1.0");
            ])
    in
    Repository.create
      (providers
      @ [
          make_pkg "leafdep" [ version "1.0"; version "2.0" ];
          make_pkg "top"
            [ version "1.0"; depends_on "iface"; depends_on "leafdep@2.0" ];
        ])
  in
  Printf.printf "%-12s %-10s %-10s %s\n" "providers" "greedy" "clauses"
    "clause search";
  List.iter
    (fun n ->
      let ctx = Concretizer.make_ctx ~compilers:Universe.compilers (family n) in
      let ast = Parser.parse_exn "top" in
      let greedy = Result.is_ok (Concretizer.concretize ctx ast) in
      let oc, dt =
        time_it (fun () -> Backends.solve_full Backends.Clauses ctx ast)
      in
      Printf.printf "%-12d %-10s %-10s %d runs, %d conflicts, %.2f ms\n" n
        (if greedy then "ok" else "conflict")
        (if Result.is_ok oc.I.oc_result then "ok" else "fail")
        oc.I.oc_stats.I.st_runs oc.I.oc_stats.I.st_conflicts (1000.0 *. dt))
    [ 2; 4; 8; 16 ];
  let ctx = universe_ctx () in
  let ast = Parser.parse_exn "ares" in
  let _, greedy_t = time_it (fun () -> Concretizer.concretize ctx ast) in
  let _, clauses_t =
    time_it (fun () -> Backends.solve Backends.Clauses ctx ast)
  in
  Printf.printf
    "ares: greedy %.2f ms, clauses %.2f ms (greedy succeeds, so the clause \
     backend returns its round-0 greedy run)\n"
    (1000.0 *. greedy_t) (1000.0 *. clauses_t);
  (* second ablation: the precomputed provider index (paper §3.4, "building
     a reverse index from virtual packages to providers") vs rebuilding it
     for every concretization *)
  let n = 200 in
  let mpileaks = Parser.parse_exn "mpileaks" in
  let _, with_index =
    time_it (fun () ->
        for _ = 1 to n do
          ignore (Concretizer.concretize ctx mpileaks)
        done)
  in
  let _, without_index =
    time_it (fun () ->
        for _ = 1 to n do
          let fresh = universe_ctx () in
          ignore (Concretizer.concretize fresh mpileaks)
        done)
  in
  Printf.printf
    "provider index: %d concretizations in %.1f ms with a shared index vs \
     %.1f ms rebuilding it each time (%.1fx)\n"
    n (1000.0 *. with_index) (1000.0 *. without_index)
    (without_index /. with_index);
  (* third ablation: building from source vs pulling the binary cache *)
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/bc" in
  let builder = universe_installer ~vfs () in
  let spec =
    ok "mpileaks"
      (Concretizer.concretize_string ctx "mpileaks ^mvapich2@1.9")
  in
  ignore (ok "install" (Installer.install builder spec));
  let built_seconds = Installer.total_build_seconds builder in
  ignore (ok "push" (Installer.push_to_cache builder cache));
  let puller = universe_installer ~install_root:"/pulled" ~cache ~vfs () in
  let (_ : (Installer.outcome list, string) result), pull_wall =
    time_it (fun () -> Installer.install puller spec)
  in
  Printf.printf
    "binary cache: source build simulates %.0f s; cache pull simulates 0 s \
     (%.1f ms of real extraction+relocation work)\n"
    built_seconds (1000.0 *. pull_wall)

(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let ctx = universe_ctx () in
  let mpileaks_ast = Parser.parse_exn "mpileaks ^mvapich2@1.9 ^libelf@0.8.12" in
  let ares_ast = Parser.parse_exn "ares" in
  let node_a = (Parser.parse_exn "p@1.2:1.4%gcc@4.7+debug=bgq").Ast.root in
  let node_b = (Parser.parse_exn "p@1.3:%gcc~shared").Ast.root in
  let payload = String.make 4096 'x' in
  let tests =
    [
      Test.make ~name:"spec-parse (long form)"
        (Staged.stage (fun () ->
             ignore
               (Parser.parse
                  "mpileaks @1.2:1.4 %gcc@4.7.3 -debug =bgq ^callpath @1.1 \
                   ^openmpi @1.4.7")));
      Test.make ~name:"constraint-intersect"
        (Staged.stage (fun () ->
             ignore (Constraint_ops.intersect_node node_a node_b)));
      Test.make ~name:"concretize mpileaks (6 nodes)"
        (Staged.stage (fun () ->
             ignore (Concretizer.concretize ctx mpileaks_ast)));
      Test.make ~name:"concretize ares (47 nodes)"
        (Staged.stage (fun () -> ignore (Concretizer.concretize ctx ares_ast)));
      Test.make ~name:"sha256 (4 KiB)"
        (Staged.stage (fun () -> ignore (Sha256.hex_digest payload)));
      Test.make ~name:"version-compare"
        (Staged.stage
           (let a = Version.of_string "1.2.3.4" in
            let b = Version.of_string "1.2.4" in
            fun () -> ignore (Version.compare a b)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              if est > 1_000_000.0 then
                Printf.printf "%-40s %10.3f ms/run\n" name (est /. 1e6)
              else if est > 1_000.0 then
                Printf.printf "%-40s %10.3f us/run\n" name (est /. 1e3)
              else Printf.printf "%-40s %10.1f ns/run\n" name est
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

(* `main.exe obs` — the per-phase observability mode: rebuild the
   Fig. 10/11 workloads under an enabled recording sink and report where
   the virtual time went (phases, counters) per package x filesystem x
   wrappers cell. Each cell also re-runs uninstrumented and asserts the
   simulated build time is bit-identical — instrumentation must not
   perturb the cost model. *)
let obs_doc () =
  let workload name fs fs_name use_wrappers =
    let obs = Obs.create () in
    let seconds = build_seconds ~obs name fs use_wrappers in
    let plain = build_seconds name fs use_wrappers in
    if plain <> seconds then
      failwith
        (Printf.sprintf "%s on %s: instrumentation perturbed br_time (%f vs %f)"
           name fs_name seconds plain);
    Json.Obj
      [
        ("package", Json.String name);
        ("fs", Json.String fs_name);
        ("wrappers", Json.Bool use_wrappers);
        ("build_seconds", Json.fixed seconds);
        ( "phases",
          Json.List
            (List.map
               (fun (r : Obs.phase_row) ->
                 Json.Obj
                   [
                     ("name", Json.String r.Obs.ph_name);
                     ("count", Json.Int r.Obs.ph_count);
                     ("total_seconds", Json.fixed r.Obs.ph_total);
                     ("self_seconds", Json.fixed r.Obs.ph_self);
                   ])
               (Obs.phase_rows obs)) );
        ( "counters",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.counters obs)) );
      ]
  in
  let workloads =
    List.concat_map
      (fun (name, _, _) ->
        [
          workload name Fsmodel.nfs "nfs" true;
          workload name Fsmodel.tmpfs "tmpfs" true;
          workload name Fsmodel.tmpfs "tmpfs" false;
        ])
      fig10_packages
  in
  Printf.printf "generated %d workloads (%d packages x 3 configurations)\n"
    (List.length workloads)
    (List.length fig10_packages);
  Json.Obj [ ("format", Json.Int 1); ("workloads", Json.List workloads) ]

(* `main.exe parallel` — the parallel-install benchmark: replay the
   Fig. 10/11 workloads (each package's DAG, plus the whole seven-
   package suite as one batch) through the deterministic virtual-time
   worker pool at -j 1/2/4/8 on both filesystem models. For every
   workload the store must be byte-identical across -j levels — the
   scheduler's cornerstone invariant — the suite must show real makespan
   speedup, and the critical-path analysis must hold its own invariants:
   CP identical at every -j level, efficiency never above 1, and the
   makespan equal to the CP bound once jobs >= nodes. *)
let parallel_doc () =
  let jobs_list = [ 1; 2; 4; 8 ] in
  let run_workload ~name ~specs ~fs ~fs_name =
    let run j =
      let inst = universe_installer ~fs () in
      let label = Printf.sprintf "%s -j%d" name j in
      let r = ok label (Installer.install_parallel inst ~jobs:j specs) in
      if r.Installer.pr_failures <> [] then
        failwith
          (label ^ ": " ^ Installer.failures_to_string r.Installer.pr_failures);
      (r, Json.to_string (Database.to_json (Installer.database inst)))
    in
    let results = List.map run jobs_list in
    (* critical-path analysis of each recorded schedule *)
    let profs =
      List.map
        (fun (r, _) ->
          ok (name ^ ": profile")
            (Profile.analyze (Installer.profile_input ~specs r)))
        results
    in
    let p1 = List.hd profs in
    List.iter2
      (fun j p ->
        if abs_float (p.Profile.p_cp_seconds -. p1.Profile.p_cp_seconds)
           > 1e-9
        then
          failwith
            (Printf.sprintf "%s: critical path drifted at -j%d" name j);
        if p.Profile.p_efficiency > 1.0 +. 1e-9 then
          failwith
            (Printf.sprintf "%s: -j%d makespan beat the CP lower bound" name
               j);
        if
          j >= List.length p.Profile.p_rows
          && abs_float (p.Profile.p_makespan -. p.Profile.p_cp_seconds)
             > 1e-9
        then
          failwith
            (Printf.sprintf
               "%s: -j%d (>= %d nodes) makespan must equal the critical path"
               name j
               (List.length p.Profile.p_rows)))
      jobs_list profs;
    let r1, index1 = List.hd results in
    if abs_float (r1.Installer.pr_makespan -. r1.Installer.pr_serial_seconds)
       > 1e-9
    then failwith (name ^ ": -j1 makespan must equal the serialized time");
    List.iter
      (fun (r, index) ->
        if index <> index1 then
          failwith
            (Printf.sprintf "%s on %s: store diverged between -j1 and -j%d"
               name fs_name r.Installer.pr_jobs);
        if
          abs_float
            (r.Installer.pr_serial_seconds -. r1.Installer.pr_serial_seconds)
          > 1e-9
        then
          failwith
            (Printf.sprintf "%s on %s: serialized time drifted across -j levels"
               name fs_name))
      results;
    let speedup_at j =
      let rec idx i = function
        | [] -> failwith "unknown -j level"
        | x :: rest -> if x = j then i else idx (i + 1) rest
      in
      let r, _ = List.nth results (idx 0 jobs_list) in
      Installer.parallel_speedup r
    in
    let json =
      Json.Obj
        [
          ("workload", Json.String name);
          ("fs", Json.String fs_name);
          ("nodes", Json.Int (List.length r1.Installer.pr_outcomes));
          ("serial_seconds", Json.fixed r1.Installer.pr_serial_seconds);
          ("cp_seconds", Json.fixed p1.Profile.p_cp_seconds);
          ( "jobs",
            Json.List
              (List.map2
                 (fun j ((r, _), p) ->
                   Json.Obj
                     [
                       ("j", Json.Int j);
                       ("makespan_seconds", Json.fixed r.Installer.pr_makespan);
                       ("speedup", Json.fixed (Installer.parallel_speedup r));
                       ("efficiency", Json.fixed p.Profile.p_efficiency);
                     ])
                 jobs_list
                 (List.combine results profs)) );
          ("store_identical_across_jobs", Json.Bool true);
        ]
    in
    (json, speedup_at 4)
  in
  let fs_models = [ (Fsmodel.nfs, "nfs"); (Fsmodel.tmpfs, "tmpfs") ] in
  let cells =
    List.concat_map
      (fun (fs, fs_name) ->
        List.map
          (fun (name, _, _) ->
            run_workload ~name ~specs:[ concrete name ] ~fs ~fs_name)
          fig10_packages
        @ [
            run_workload ~name:"fig10-suite"
              ~specs:(List.map (fun (n, _, _) -> concrete n) fig10_packages)
              ~fs ~fs_name;
          ])
      fs_models
  in
  let best =
    List.fold_left (fun m (_, s) -> max m s) 0.0 cells
  in
  if best < 1.5 then
    failwith
      (Printf.sprintf
         "no workload reached 1.5x speedup at -j4 (best %.2fx)" best);
  Printf.printf
    "generated %d workloads ((%d packages + suite) x 2 fs models x -j %s)\n"
    (List.length cells)
    (List.length fig10_packages)
    (String.concat "/" (List.map string_of_int jobs_list));
  Printf.printf "best -j4 speedup: %.2fx (store identical across all levels)\n"
    best;
  Json.Obj
    [
      ("format", Json.Int 1);
      ("jobs_levels", Json.List (List.map (fun j -> Json.Int j) jobs_list));
      ("workloads", Json.List (List.map fst cells));
    ]

(* `main.exe concretize` — the concretization-cache benchmark over
   the 21-workload suite (the seven Fig. 10/11 packages x three abstract
   spec forms: plain, compiler-constrained, version-pinned). Four
   scenarios per workload:
   - cold:   fresh cache, first solve (misses, full fixed point)
   - warm:   same cache, repeat query (whole-query hit, zero iterations)
   - fresh:  no cache at all (--fresh)
   - seeded: one cache shared across the whole suite, so later workloads
             start from sub-DAG pins of earlier ones
   The cornerstone invariant is asserted for every workload: cold, warm,
   fresh, and seeded results are byte-identical (JSON + rendered tree).
   A fifth pass installs the seven packages and replays the suite with
   --reuse, asserting every reused spec satisfies its query. Fails unless
   warm uses at least 5x fewer concretizer iterations than cold. *)
let concretize_doc () =
  let repo = Universe.repository () in
  let config = Universe.default_config in
  let compilers = Universe.compilers in
  let cx = Ccache.context ~repo ~compilers ~config () in
  let workloads = query_suite () in
  let solve ~obs ~cache ast =
    let cctx = Concretizer.make_ctx ~config ~obs ~compilers repo in
    let before = Obs.counter obs "concretize.iterations" in
    let c =
      ok_with Cerror.to_string (Printer.to_string ast)
        (Concretizer.concretize_cached ?cache cctx ast)
    in
    (c, Obs.counter obs "concretize.iterations" - before)
  in
  (* isolated cold / warm / fresh per workload *)
  let rows =
    List.map
      (fun s ->
        let ast = parse s in
        let obs = Obs.create () in
        let cache = Ccache.create ~obs ~context:cx () in
        let cold, cold_iters = solve ~obs ~cache:(Some cache) ast in
        let warm, warm_iters = solve ~obs ~cache:(Some cache) ast in
        let fresh, _ = solve ~obs:(Obs.create ()) ~cache:None ast in
        if render cold <> render warm then
          failwith (s ^ ": warm result diverged from cold");
        if render cold <> render fresh then
          failwith (s ^ ": --fresh result diverged from cold");
        if Obs.counter obs "ccache.hits" < 1 then
          failwith (s ^ ": warm repeat did not hit the cache");
        (s, ast, cold, cold_iters, warm_iters))
      workloads
  in
  (* the whole suite against one shared cache: later workloads start from
     sub-DAG pins seeded by earlier ones, and every result must still be
     byte-identical to its isolated cold solve *)
  let shared_obs = Obs.create () in
  let shared_cache = Ccache.create ~obs:shared_obs ~context:cx () in
  let seeded_iters =
    List.map
      (fun (s, ast, cold, _, _) ->
        let c, iters = solve ~obs:shared_obs ~cache:(Some shared_cache) ast in
        if render c <> render cold then
          failwith (s ^ ": seeded result diverged from cold");
        iters)
      rows
  in
  (* store-aware reuse: install the seven packages, replay the suite with
     --reuse; a reused spec need not equal the cold concretization (it
     reflects the store), but it must satisfy the query *)
  let rctx = Context.create ~obs:(Obs.create ()) () in
  List.iter
    (fun (name, _, _) ->
      ignore (ok (name ^ ": install failed") (Ospack.install rctx name)))
    fig10_packages;
  let robs = rctx.Context.obs in
  let reuse_before = Obs.counter robs "ccache.reuse_hits" in
  List.iter
    (fun (s, ast, _, _, _) ->
      let c = ok s (Ospack.spec ~reuse:true rctx s) in
      if not (Concrete.satisfies c ast) then
        failwith (s ^ ": reused spec does not satisfy the query"))
    rows;
  let reuse_hits = Obs.counter robs "ccache.reuse_hits" - reuse_before in
  let sum l = List.fold_left ( + ) 0 l in
  let cold_total = sum (List.map (fun (_, _, _, c, _) -> c) rows) in
  let warm_total = sum (List.map (fun (_, _, _, _, w) -> w) rows) in
  let seeded_total = sum seeded_iters in
  if warm_total * 5 > cold_total then
    failwith
      (Printf.sprintf
         "warm concretization used %d iterations vs %d cold — less than \
          the required 5x reduction"
         warm_total cold_total);
  let doc =
    Json.Obj
      [
        ("format", Json.Int 1);
        ( "workloads",
          Json.List
            (List.map2
               (fun (s, _, _, cold_iters, warm_iters) seeded ->
                 Json.Obj
                   [
                     ("spec", Json.String s);
                     ("cold_iterations", Json.Int cold_iters);
                     ("warm_iterations", Json.Int warm_iters);
                     ("seeded_iterations", Json.Int seeded);
                     ("byte_identical", Json.Bool true);
                   ])
               rows seeded_iters) );
        ( "summary",
          Json.Obj
            [
              ("cold_iterations", Json.Int cold_total);
              ("warm_iterations", Json.Int warm_total);
              ("seeded_iterations", Json.Int seeded_total);
              ("reuse_hits", Json.Int reuse_hits);
              ("reuse_queries", Json.Int (List.length rows));
            ] );
      ]
  in
  Printf.printf
    "generated %d workloads\n\
     cold %d iterations, warm %d, suite-seeded %d; reuse hits %d/%d\n\
     cold == warm == fresh == seeded byte-identical for every workload\n"
    (List.length rows) cold_total warm_total seeded_total reuse_hits
    (List.length rows);
  doc

(* `main.exe solve` — the differential backend benchmark: both
   concretizer backends over the 21-workload suite (the seven Fig. 10/11
   packages x three abstract forms), plus the §4.5 hwloc divergence spec
   and a truly unsatisfiable one. Asserts the divergence contract:
   - every greedy-solvable workload: byte-identical agreement (JSON +
     rendered tree) between greedy and clauses;
   - the divergence spec: greedy UNSAT, clauses SAT (and the model
     satisfies the query);
   - the unsat spec: both UNSAT, with a non-empty clause-backend core. *)
let solve_doc () =
  let repo = Universe.repository () in
  let config = Universe.default_config in
  let compilers = Universe.compilers in
  let workloads = query_suite () in
  let run backend ast =
    let cctx =
      Concretizer.make_ctx ~config ~obs:(Obs.create ()) ~compilers repo
    in
    time_it (fun () -> Backends.solve_full backend cctx ast)
  in
  let stats_json (s : I.stats) secs =
    Json.Obj
      [
        ("decisions", Json.Int s.I.st_decisions);
        ("propagations", Json.Int s.I.st_propagations);
        ("conflicts", Json.Int s.I.st_conflicts);
        ("restarts", Json.Int s.I.st_restarts);
        ("greedy_runs", Json.Int s.I.st_runs);
        ("iterations", Json.Int s.I.st_iterations);
        wall_ms secs;
      ]
  in
  let rows =
    List.map
      (fun s ->
        let ast = parse s in
        let g, g_secs = run Backends.Greedy ast in
        let c, c_secs = run Backends.Clauses ast in
        (match (g.I.oc_result, c.I.oc_result) with
        | Ok gc, Ok cc ->
            if render gc <> render cc then
              failwith (s ^ ": backends disagree on a greedy-solvable spec")
        | _ -> failwith (s ^ ": workload did not solve on both backends"));
        Json.Obj
          [
            ("spec", Json.String s);
            ("greedy", stats_json g.I.oc_stats g_secs);
            ("clauses", stats_json c.I.oc_stats c_secs);
            ("agree", Json.Bool true);
          ])
      workloads
  in
  (* the §4.5 divergence: greedy dead-ends on the site-ranked provider;
     the complete backend must find the openmpi model *)
  let div_spec = "mpileaks ^mpi+hwloc ^hwloc@1.9" in
  let div_ast = parse div_spec in
  let dg, _ = run Backends.Greedy div_ast in
  let dc, _ = run Backends.Clauses div_ast in
  (match (dg.I.oc_result, dc.I.oc_result) with
  | Error _, Ok c when Concrete.satisfies c div_ast -> ()
  | Error _, Ok _ -> failwith (div_spec ^ ": clause model violates the query")
  | Ok _, _ -> failwith (div_spec ^ ": greedy unexpectedly solved it")
  | _, Error _ -> failwith (div_spec ^ ": clause backend failed to solve"));
  (* a true conflict: both backends UNSAT, clauses with a rendered core *)
  let unsat_spec = "gerris ^mpich@1.4" in
  let unsat_ast = parse unsat_spec in
  let ug, _ = run Backends.Greedy unsat_ast in
  let uc, _ = run Backends.Clauses unsat_ast in
  (match (ug.I.oc_result, uc.I.oc_result) with
  | Error _, Error _ when uc.I.oc_core <> [] -> ()
  | Error _, Error _ -> failwith (unsat_spec ^ ": empty unsat core")
  | _ -> failwith (unsat_spec ^ ": expected both backends to report UNSAT"));
  let doc =
    Json.Obj
      [
        ("format", Json.Int 1);
        ("workloads", Json.List rows);
        ( "divergence",
          Json.Obj
            [
              ("spec", Json.String div_spec);
              ("greedy", Json.String "unsat");
              ("clauses", Json.String "sat");
              ("clauses_stats", stats_json dc.I.oc_stats 0.0);
            ] );
        ( "unsat",
          Json.Obj
            [
              ("spec", Json.String unsat_spec);
              ("core_lines", Json.Int (List.length uc.I.oc_core));
            ] );
      ]
  in
  Printf.printf
    "generated %d workloads\n\
     greedy == clauses byte-identical on all %d greedy-solvable specs\n\
     divergence: %s — greedy unsat, clauses sat\n\
     unsat: %s — both unsat, %d core lines\n"
    (List.length rows) (List.length rows) div_spec unsat_spec
    (List.length uc.I.oc_core);
  doc

(* `main.exe store` — the sharded-store benchmark. Three scenarios:
   - installs: the seven Fig. 10/11 packages installed sequentially,
     accounting the index bytes the sharded layout writes per install.
   - warm queries: a fresh installer loads the sharded index and serves
     ~10k find_satisfying queries; counts are asserted deterministic,
     wall time is informational.
   - ccache survival: the 21-workload concretization suite is cached,
     one leaf recipe (libdwarf — not a virtual provider) is edited, and
     the cache is reloaded under the edited universe. Fails unless the
     edit evicts the entries whose closure contains libdwarf AND leaves
     unrelated entries live — the point of per-entry Merkle
     fingerprints. *)
let store_doc () =
  let repo = Universe.repository () in
  let config = Universe.default_config in
  let compilers = Universe.compilers in
  (* --- index bytes per install --- *)
  let vfs = Vfs.create () in
  let inst = universe_installer ~config ~vfs () in
  let installs =
    List.map
      (fun (name, _, _) ->
        let before = Installer.index_bytes_written inst in
        let outcomes =
          ok (name ^ ": install failed")
            (Installer.install inst (concrete name))
        in
        let bytes = Installer.index_bytes_written inst - before in
        (name, List.length outcomes, bytes))
      fig10_packages
  in
  let sharded_total =
    List.fold_left (fun acc (_, _, bytes) -> acc + bytes) 0 installs
  in
  (* --- ~10k-query warm index traffic against a freshly loaded store --- *)
  let fresh = universe_installer ~config ~vfs () in
  let load_result, load_secs = time_it (fun () -> Installer.load_index fresh) in
  let loaded = ok "load_index" load_result in
  let db = Installer.database fresh in
  if loaded <> Database.count (Installer.database inst) then
    failwith "sharded reload lost records";
  let queries = List.map (fun (n, _, _) -> parse n) fig10_packages in
  let rounds = 10_000 / List.length queries in
  let hits = ref 0 in
  let (), query_secs =
    time_it (fun () ->
        for _ = 1 to rounds do
          List.iter
            (fun q -> hits := !hits + List.length (Database.find_satisfying db q))
            queries
        done)
  in
  let query_count = rounds * List.length queries in
  if !hits < query_count then
    failwith "warm queries must hit every installed root";
  (* --- ccache survival across a single-recipe edit --- *)
  let workloads = query_suite () in
  let cx0 = Ccache.context ~repo ~compilers ~config () in
  let cvfs = Vfs.create () in
  let dir = (cvfs, "/bench/ccache") in
  let cache = Ccache.create ~dir ~context:cx0 () in
  List.iter
    (fun s ->
      ignore
        (ok_with Cerror.to_string s
           (Concretizer.concretize_cached ~cache (Lazy.force universe_cctx)
              (parse s))))
    workloads;
  let stored = Ccache.length cache in
  ok "ccache save" (Ccache.save cache);
  (* edit one leaf recipe that provides no virtual: add a version *)
  let edited = "libdwarf" in
  let edited_repo =
    Repository.create ~name:(Repository.name repo)
      (List.map
         (fun p ->
           if p.Package.p_name = edited then
             Package.override p [ Package.version "99.9" ]
           else p)
         (Repository.all_packages repo))
  in
  (* reopen under the edited universe and look every workload up: each
     entry file is read back and revalidated on its own *)
  let cobs = Obs.create () in
  let cx1 = Ccache.context ~repo:edited_repo ~compilers ~config () in
  let reloaded = Ccache.create ~obs:cobs ~dir ~context:cx1 () in
  List.iter (fun s -> ignore (Ccache.lookup reloaded (parse s))) workloads;
  let survivors = Ccache.length reloaded in
  let evicted = Obs.counter cobs "ccache.invalidations" in
  if survivors <= 0 then
    failwith "a single-recipe edit must leave unrelated ccache entries live";
  if evicted <= 0 then
    failwith "editing libdwarf must evict the entries whose closure holds it";
  if survivors + evicted <> stored then
    failwith
      (Printf.sprintf "ccache accounting mismatch: %d + %d <> %d" survivors
         evicted stored);
  let doc =
    Json.Obj
      [
        ("format", Json.Int 1);
        ( "installs",
          Json.List
            (List.map
               (fun (name, nodes, bytes) ->
                 Json.Obj
                   [
                     ("spec", Json.String name);
                     ("nodes", Json.Int nodes);
                     ("index_bytes_sharded", Json.Int bytes);
                   ])
               installs) );
        ( "index",
          Json.Obj
            [
              ("records", Json.Int (Database.count db));
              ("index_bytes_sharded", Json.Int sharded_total);
            ] );
        ( "warm_queries",
          Json.Obj
            [
              ("records_loaded", Json.Int loaded);
              ("load", Json.Obj [ wall_ms load_secs ]);
              ("count", Json.Int query_count);
              ("hits", Json.Int !hits);
              ("serve", Json.Obj [ wall_ms query_secs ]);
            ] );
        ( "ccache",
          Json.Obj
            [
              ("entries", Json.Int stored);
              ("edited_recipe", Json.String edited);
              ("survivors", Json.Int survivors);
              ("evicted", Json.Int evicted);
            ] );
      ]
  in
  Printf.printf
    "installed %d packages (%d records)\n\
     index traffic: %d bytes sharded\n\
     warm queries: %d served, %d hits\n\
     ccache: %d entries; editing %s evicted %d, %d survived\n"
    (List.length fig10_packages) (Database.count db) sharded_total
    query_count !hits stored edited evicted survivors;
  doc

(* --- the buildcache mode: mirror fleet + splice ------------------------
   Stocks three mirrors with partial coverage of the Fig. 10 roster
   (edge carries the top-2, regional the top-4, origin everything but
   the rank-7 package), replays a seeded zipf request trace with
   transient-fault bursts, and asserts the accounting: hits + source
   builds cover every request, the trace replays byte-identically under
   the same seed, every recovery path (retry, failover, fallback) fires,
   and the popularity skew shows. Then splices a cached dyninst onto
   libelf@0.8.12 and asserts the recomputed hash, the RPATH rewiring,
   and the empty-environment loader verification. *)
let buildcache_doc () =
  let config = Universe.default_config in
  (* --- build the roster once and stock three mirrors from it --- *)
  let vfs = Vfs.create () in
  let inst = universe_installer ~config ~vfs () in
  let items =
    List.map
      (fun (name, _, _) ->
        let spec = concrete name in
        ignore (ok (name ^ ": install failed") (Installer.install inst spec));
        let hash = Concrete.root_hash spec in
        match Database.find_by_hash (Installer.database inst) hash with
        | Some record ->
            ( {
                Cachefleet.it_name = name;
                it_hash = hash;
                it_build_seconds = record.Database.r_build_seconds;
              },
              record )
        | None -> failwith (name ^ ": installed root missing from the index"))
      fig10_packages
  in
  let stock root keep =
    let cache = Buildcache.create vfs ~root in
    List.iteri
      (fun rank ((item : Cachefleet.item), record) ->
        if keep rank then
          ok_with Buildcache.error_to_string item.it_name
            (Buildcache.save cache
               ~install_root:(Installer.install_root inst)
               record))
      items;
    cache
  in
  (* partial coverage, fleet-order fastest-first: the rank-7 package is
     on no mirror, so its requests fall back to source builds *)
  let edge = stock "/mirrors/edge" (fun r -> r < 2) in
  let regional = stock "/mirrors/regional" (fun r -> r < 4) in
  let origin = stock "/mirrors/origin" (fun r -> r < 6) in
  let trace = List.map fst items in
  let mk_fleet obs =
    Cachefleet.create ~obs
      [
        Cachefleet.mirror ~latency:0.01 ~byte_rate:8_000_000.0 ~name:"edge"
          edge;
        Cachefleet.mirror ~latency:0.03 ~byte_rate:4_000_000.0
          ~name:"regional" regional;
        Cachefleet.mirror ~latency:0.08 ~byte_rate:1_000_000.0 ~name:"origin"
          origin;
      ]
  in
  let fleet_config =
    {
      Cachefleet.default_config with
      fc_requests = 4000;
      fc_clients = 800;
      fc_fault_every = 97;
    }
  in
  let report = Cachefleet.run (mk_fleet (Obs.create ())) fleet_config trace in
  let replay = Cachefleet.run (mk_fleet Obs.disabled) fleet_config trace in
  if
    Cachefleet.report_to_string report <> Cachefleet.report_to_string replay
  then failwith "fleet trace must replay byte-identically under the same seed";
  if report.Cachefleet.rp_hits + report.rp_fallback_builds <> report.rp_requests
  then failwith "every request must end in a hit or a source build";
  if report.rp_fallback_builds <= 0 then
    failwith "the uncached rank-7 package must force source-build fallbacks";
  if report.rp_retries <= 0 || report.rp_failovers <= 0 then
    failwith "fault bursts must exercise both retry and failover";
  if Cachefleet.hit_rate report < 0.5 then
    failwith "zipf traffic against stocked mirrors must mostly hit";
  let mirror_hits =
    List.fold_left
      (fun acc (m : Cachefleet.mirror) -> acc + m.m_hits)
      0 report.rp_mirrors
  in
  if mirror_hits <> report.rp_hits then
    failwith "per-mirror hit accounting must sum to the fleet total";
  let pkg_requests name =
    try List.assoc name report.rp_by_package with Not_found -> 0
  in
  if pkg_requests "libelf" <= pkg_requests "lapack" then
    failwith "zipf rank 1 must out-request rank 7";
  (match report.rp_mirrors with
  | (e : Cachefleet.mirror) :: rest ->
      if List.exists (fun (m : Cachefleet.mirror) -> m.m_hits > e.m_hits) rest
      then failwith "the fastest mirror must serve the popular head"
  | [] -> failwith "fleet lost its mirrors");
  (* --- splice a cached dyninst onto a different libelf --- *)
  let svfs = Vfs.create () in
  let scache = Buildcache.create svfs ~root:"/bench/buildcache" in
  let sinst = universe_installer ~config ~vfs:svfs ~cache:scache () in
  let target = concrete "dyninst" in
  ignore (ok "dyninst: install failed" (Installer.install sinst target));
  let pushed = ok "push" (Installer.push_to_cache sinst scache) in
  let replacement = concrete "libelf@0.8.12" in
  ignore
    (ok "libelf@0.8.12: install failed" (Installer.install sinst replacement));
  let sp =
    ok "splice"
      (Installer.splice sinst ~hash:(Concrete.root_hash target) ~replacement)
  in
  if sp.Installer.sp_new_hash = sp.sp_old_hash then
    failwith "splicing a different dependency must recompute the root hash";
  if sp.sp_rewired <= 0 then failwith "splice must rewire at least one binary";
  if sp.sp_resolved <= 0 then
    failwith "the spliced prefix must hold loader-verified binaries";
  let doc =
    Json.Obj
      [
        ("format", Json.Int 1);
        ("fleet", Cachefleet.report_to_json report);
        ( "splice",
          Json.Obj
            [
              ("target", Json.String "dyninst");
              ("replacement", Json.String "libelf@0.8.12");
              ("replaced", Json.String sp.sp_replaced);
              ("pushed_entries", Json.Int pushed);
              ("old_hash", Json.String sp.sp_old_hash);
              ("new_hash", Json.String sp.sp_new_hash);
              ("rewired", Json.Int sp.sp_rewired);
              ("resolved", Json.Int sp.sp_resolved);
            ] );
      ]
  in
  print_string (Cachefleet.report_to_string report);
  Printf.printf "splice: dyninst %s -> %s (%d RPATHs rewired, %d binaries verified)\n"
    sp.sp_old_hash sp.sp_new_hash sp.sp_rewired sp.sp_resolved;
  doc

(* --- the env mode: unified solve vs lockfile replay --------------------
   Builds a three-root environment (the paper's tool stack) with a fresh
   unified solve at -j4, then replays its committed lockfile in a second,
   empty context and asserts the central environments invariant: at the
   same context fingerprint, solve and replay produce byte-identical
   stores, indexes, and views. A third context with a drifted site config
   must refuse the lock with a typed staleness error, and three
   single-root environments sharing one store must keep closure-exact,
   disjoint views. Wall-clock solve/replay times are informational;
   every count is exact. *)
let env_doc () =
  let roots = [ "stat +gui"; "mpileaks ^mvapich2@1.9"; "tau" ] in
  let build_env ctx ~name ?view specs =
    List.fold_left
      (fun env spec -> ok spec (Environment.add ctx env spec))
      (ok name (Environment.create ctx ~name ?view ()))
      specs
  in
  (* the ccache lives outside the store, so a solving context's store
     holds nothing a replay lacks *)
  let snapshot ctx root = Vfs.snapshot ctx.Context.vfs root in
  let db_json ctx =
    Json.to_string ~indent:2
      (Database.to_json (Installer.database ctx.Context.installer))
  in
  (* --- context A: cold unified solve + parallel install --- *)
  let a = Context.create () in
  let env_a = build_env a ~name:"prod" ~view:"/bench/view" roots in
  let report_a, cold_secs =
    time_it (fun () -> ok "env install" (Environment.install ~jobs:4 a env_a))
  in
  let nodes =
    List.length report_a.Environment.er_report.Installer.pr_outcomes
  in
  (* warm re-install: the valid lock covers these roots, so the fresh
     solve is asserted hash-identical to it inside install *)
  let _, warm_secs =
    time_it (fun () ->
        ok "warm env install" (Environment.install ~jobs:4 a env_a))
  in
  (* --- context B: replay the lockfile into an empty store --- *)
  let b = Context.create () in
  let env_b = build_env b ~name:"prod" ~view:"/bench/view" roots in
  let lock_path = Environment.lock_path "prod" in
  let lock_bytes =
    ok_with Vfs.error_to_string "lock read"
      (Vfs.read_file a.Context.vfs lock_path)
  in
  let copy_lock ctx =
    ok_with Vfs.error_to_string "lock copy"
      (Vfs.write_file ctx.Context.vfs lock_path lock_bytes)
  in
  copy_lock b;
  let report_b, replay_secs =
    time_it (fun () ->
        ok_with Environment.locked_error_to_string "locked replay"
          (Environment.install_locked ~jobs:4 b env_b))
  in
  if snapshot a "/ospack/opt" <> snapshot b "/ospack/opt" then
    failwith "solve and lockfile replay must produce byte-identical stores";
  if db_json a <> db_json b then
    failwith "solve and lockfile replay must produce byte-identical indexes";
  if snapshot a "/bench/view" <> snapshot b "/bench/view" then
    failwith "solve and lockfile replay must produce byte-identical views";
  if report_b.Environment.er_linked <> report_a.Environment.er_linked then
    failwith "replayed view must link the same files";
  (* --- context C: drifted site config, the lock must be typed stale --- *)
  let stale_config =
    Config.layer
      [ Config.parse_exn "site.name = elsewhere"; Universe.default_config ]
  in
  let c = Context.create ~config:stale_config () in
  let env_c = build_env c ~name:"prod" roots in
  copy_lock c;
  (match Environment.install_locked c env_c with
  | Error (Environment.Locked_lock (Environment.Lock_stale _)) -> ()
  | Error e ->
      failwith
        ("drifted config must be Lock_stale, got "
        ^ Environment.locked_error_to_string e)
  | Ok _ -> failwith "a stale lockfile must never replay");
  if Database.count (Installer.database c.Context.installer) <> 0 then
    failwith "a refused stale lock must not install anything";
  (* --- N single-root envs, one store, closure-exact views --- *)
  let d = Context.create () in
  let shared =
    List.map
      (fun (name, root) ->
        let env = build_env d ~name ~view:("/views/" ^ name) [ root ] in
        let r = ok name (Environment.install ~jobs:4 d env) in
        let closure =
          List.fold_left
            (fun acc (_, c) -> acc + Concrete.node_count c)
            0 r.Environment.er_roots
        in
        (name, root, closure, r.Environment.er_linked))
      [ ("tools", "dyninst"); ("debug", "libdwarf"); ("math", "gsl") ]
  in
  let closure_total =
    List.fold_left (fun acc (_, _, c, _) -> acc + c) 0 shared
  in
  let store_records = Database.count (Installer.database d.Context.installer) in
  if store_records >= closure_total then
    failwith "overlapping env closures must share store records";
  List.iter
    (fun (name, _, _, links) ->
      if links <= 0 then failwith (name ^ ": env view linked nothing"))
    shared;
  let doc =
    Json.Obj
      [
        ("format", Json.Int 1);
        ( "unified",
          Json.Obj
            [
              ("roots", Json.Int (List.length roots));
              ("nodes", Json.Int nodes);
              ("jobs", Json.Int report_a.Environment.er_report.Installer.pr_jobs);
              ("view_links", Json.Int report_a.Environment.er_linked);
              ("solve_cold", Json.Obj [ wall_ms cold_secs ]);
              ("solve_warm", Json.Obj [ wall_ms warm_secs ]);
            ] );
        ( "replay",
          Json.Obj
            [
              ("nodes", Json.Int (List.length report_b.Environment.er_report.Installer.pr_outcomes));
              ("byte_identical", Json.Bool true);
              ("stale_rejected", Json.Bool true);
              ("install", Json.Obj [ wall_ms replay_secs ]);
            ] );
        ( "shared_store",
          Json.Obj
            [
              ("envs", Json.Int (List.length shared));
              ("store_records", Json.Int store_records);
              ("closure_nodes_total", Json.Int closure_total);
              ( "views",
                Json.List
                  (List.map
                     (fun (name, root, closure, links) ->
                       Json.Obj
                         [
                           ("env", Json.String name);
                           ("root", Json.String root);
                           ("closure_nodes", Json.Int closure);
                           ("view_links", Json.Int links);
                         ])
                     shared) );
            ] );
      ]
  in
  Printf.printf
    "unified solve: %d roots -> %d nodes at -j4, %d files linked\n\
     lockfile replay: byte-identical store/index/view; stale lock refused \
     typed\n\
     shared store: %d envs, %d records for %d closure nodes\n"
    (List.length roots) nodes report_a.Environment.er_linked
    (List.length shared) store_records closure_total;
  doc

let default_run () =
  Printf.printf
    "ospack benchmark harness — reproduces every table and figure of the \
     Spack SC'15 evaluation\n";
  table1 ();
  table2 ();
  table3 ();
  fig5 ();
  fig8 ();
  fig9 ();
  let times = simulate_builds () in
  fig10 times;
  fig11 times;
  ablation ();
  micro ();
  print_newline ()

(* ------------------------------------------------------------------ *)

(* The baseline-gated modes: each generates its BENCH document in memory
   (running all of its internal assertions along the way), then either
   writes it or diffs it against the committed baseline under the
   per-metric tolerance policy (Ospack_obs.Baseline). Re-baselining is
   explicit — --update-baselines (or an explicit scratch PATH) writes,
   --check never does. --inject-cost-pct scales every virtual-time
   metric by +P% before the diff; because the scheduler is deterministic,
   a uniform +P% per-node cost scales the whole schedule linearly without
   reordering it, so this is exactly the document a +P% cost regression
   would produce — the gate's self-test. *)

let bench_modes =
  [
    ("obs", obs_doc, "BENCH_obs.json");
    ("parallel", parallel_doc, "BENCH_parallel.json");
    ("concretize", concretize_doc, "BENCH_concretize.json");
    ("solve", solve_doc, "BENCH_solve.json");
    ("store", store_doc, "BENCH_store.json");
    ("buildcache", buildcache_doc, "BENCH_buildcache.json");
    ("env", env_doc, "BENCH_env.json");
  ]

(* the virtual-time leaves a per-node cost increase scales; counts,
   speedups, and efficiency ratios are invariant under uniform scaling *)
let time_fields =
  [
    "build_seconds"; "total_seconds"; "self_seconds"; "serial_seconds";
    "makespan_seconds"; "cp_seconds";
  ]

let rec inject_costs pct json =
  match json with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | Json.Float f when List.mem k time_fields ->
                 (k, Json.fixed (f *. (1.0 +. (pct /. 100.0))))
             | v -> (k, inject_costs pct v))
           fields)
  | Json.List items -> Json.List (List.map (inject_costs pct) items)
  | leaf -> leaf

let usage () =
  prerr_endline
    "usage: main.exe [MODE [PATH] [--check | --update-baselines] \
     [--inject-cost-pct P]]\n\
     modes: obs | parallel | concretize | solve | store | buildcache | env \
     (no mode: the full table/figure run)\n\
     MODE PATH            write the document to an explicit scratch PATH\n\
     MODE --check         diff the freshly generated document against the \
     committed baseline; never writes\n\
     MODE --update-baselines  write the committed baseline (explicit \
     re-baselining)\n\
     --inject-cost-pct P  scale every virtual-time metric by +P% first \
     (gate self-test)";
  exit 2

let run_mode name doc_fn default_path args =
  let check = ref false and update = ref false in
  let inject = ref 0.0 and path = ref None in
  let rec parse = function
    | [] -> ()
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--update-baselines" :: rest ->
        update := true;
        parse rest
    | "--inject-cost-pct" :: p :: rest ->
        (match float_of_string_opt p with
        | Some f -> inject := f
        | None -> usage ());
        parse rest
    | p :: rest when !path = None && String.length p > 0 && p.[0] <> '-' ->
        path := Some p;
        parse rest
    | _ -> usage ()
  in
  parse args;
  if !check && !update then usage ();
  let doc = doc_fn () in
  let doc = if !inject <> 0.0 then inject_costs !inject doc else doc in
  let target = Option.value !path ~default:default_path in
  if !check then begin
    if not (Sys.file_exists target) then begin
      Printf.eprintf "%s: no baseline at %s (run --update-baselines first)\n"
        name target;
      exit 1
    end;
    let ic = open_in target in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string content with
    | Error e ->
        Printf.eprintf "%s: unreadable baseline %s: %s\n" name target e;
        exit 1
    | Ok baseline -> (
        let findings = Baseline.compare_docs ~baseline ~current:doc in
        print_string (Baseline.report findings);
        match Baseline.regressions findings with
        | [] -> Printf.printf "%s: within tolerance of %s\n" name target
        | r ->
            Printf.eprintf "%s: %d regression(s) against %s\n" name
              (List.length r) target;
            exit 1)
  end
  else if !update || !path <> None then begin
    let oc = open_out target in
    output_string oc (Json.to_string ~indent:2 doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" target
  end
  else usage ()

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] -> default_run ()
  | _ :: mode :: rest -> (
      match List.find_opt (fun (n, _, _) -> n = mode) bench_modes with
      | Some (name, doc_fn, default_path) ->
          run_mode name doc_fn default_path rest
      | None ->
          if rest = [] then default_run () else usage ())
