(* The deterministic parallel DAG installer: virtual-time worker pool,
   store equivalence across -j levels, failure poisoning, and the
   crash-consistency guarantee of the on-disk index. *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Concretizer = Ospack_concretize.Concretizer
module Concrete = Ospack_spec.Concrete
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Builder = Ospack_buildsim.Builder
module Mirror = Ospack_buildsim.Mirror
module Vfs = Ospack_vfs.Vfs
module Obs = Ospack_obs.Obs
module Json = Ospack_json.Json

let repo =
  Repository.create
    [
      make_pkg "mpileaks"
        [ version "1.0"; depends_on "mpi"; depends_on "callpath" ];
      make_pkg "callpath" [ version "1.0"; depends_on "dyninst" ];
      make_pkg "dyninst" [ version "8.2"; depends_on "libelf" ];
      make_pkg "libelf" [ version "0.8.13" ];
      make_pkg "mpich" [ version "3.0.4"; provides "mpi@:3" ];
    ]

let compilers = Compilers.create [ Compilers.toolchain "gcc" "4.9.2" ]
let cctx = Concretizer.make_ctx ~compilers repo

let concretize ?(ctx = cctx) spec =
  match Concretizer.concretize_string ctx spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "concretize %s: %s" spec e

let index_json inst =
  Json.to_string (Database.to_json (Installer.database inst))

let outcome_name (o : Installer.outcome) =
  Concrete.root o.Installer.o_record.Database.r_spec

let install_par ?(repo = repo) ?obs ?mirror ~jobs specs =
  let inst = Installer.create ?obs ?mirror ~vfs:(Vfs.create ()) ~repo ~compilers () in
  match Installer.install_parallel inst ~jobs specs with
  | Ok r -> (inst, r)
  | Error e -> Alcotest.failf "install_parallel -j%d: %s" jobs e

(* --- determinism and store equivalence --- *)

let store_equivalence_across_j () =
  let spec = concretize "mpileaks ^mpich" in
  (* [Installer.install] (-j1) is the reference store *)
  let serial = Installer.create ~vfs:(Vfs.create ()) ~repo ~compilers () in
  let serial_outcomes =
    match Installer.install serial spec with
    | Ok o -> o
    | Error e -> Alcotest.failf "serial install: %s" e
  in
  let reference = index_json serial in
  List.iter
    (fun jobs ->
      let inst, r = install_par ~jobs [ spec ] in
      Alcotest.(check int)
        (Printf.sprintf "-j%d installs every node" jobs)
        (List.length serial_outcomes)
        (List.length r.Installer.pr_outcomes);
      Alcotest.(check string)
        (Printf.sprintf "-j%d store identical to serial" jobs)
        reference (index_json inst);
      Alcotest.(check bool)
        (Printf.sprintf "-j%d makespan bounded by serialized time" jobs)
        true
        (r.Installer.pr_makespan <= r.Installer.pr_serial_seconds +. 1e-9);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "-j%d same serialized seconds" jobs)
        (Installer.total_build_seconds serial)
        r.Installer.pr_serial_seconds)
    [ 1; 2; 3; 4; 8 ]

let j1_matches_serial_order () =
  let spec = concretize "mpileaks ^mpich" in
  let _, r = install_par ~jobs:1 [ spec ] in
  Alcotest.(check (list string))
    "-j1 completion order is the serial topological order"
    (Concrete.topological_order spec)
    (List.map outcome_name r.Installer.pr_outcomes);
  Alcotest.(check (float 1e-9)) "-j1 makespan = serialized time"
    r.Installer.pr_serial_seconds r.Installer.pr_makespan;
  Alcotest.(check bool) "no failures" true (r.Installer.pr_failures = [])

let schedule_sanity () =
  let spec = concretize "mpileaks ^mpich" in
  let jobs = 3 in
  let _, r = install_par ~jobs [ spec ] in
  let slots = r.Installer.pr_schedule in
  Alcotest.(check int) "one slot per node" 5 (List.length slots);
  (* workers in range, and no two slots of one worker overlap *)
  List.iter
    (fun (s : Installer.slot) ->
      Alcotest.(check bool) "worker in range" true
        (s.Installer.sl_worker >= 0 && s.Installer.sl_worker < jobs))
    slots;
  List.iter
    (fun w ->
      let mine =
        List.filter (fun s -> s.Installer.sl_worker = w) slots
        |> List.sort (fun a b ->
               compare a.Installer.sl_start b.Installer.sl_start)
      in
      ignore
        (List.fold_left
           (fun prev_finish (s : Installer.slot) ->
             Alcotest.(check bool) "no overlap on one worker" true
               (s.Installer.sl_start >= prev_finish -. 1e-9);
             s.Installer.sl_finish)
           0.0 mine))
    [ 0; 1; 2 ];
  (* dependencies finish before dependents start *)
  let finish_of name =
    let s = List.find (fun s -> s.Installer.sl_node = name) slots in
    s.Installer.sl_finish
  in
  List.iter
    (fun (s : Installer.slot) ->
      List.iter
        (fun dep ->
          Alcotest.(check bool)
            (Printf.sprintf "%s starts after %s finishes" s.Installer.sl_node
               dep)
            true
            (finish_of dep <= s.Installer.sl_start +. 1e-9))
        (Concrete.node_exn spec s.Installer.sl_node).Concrete.deps)
    slots;
  let max_finish =
    List.fold_left
      (fun m (s : Installer.slot) -> max m s.Installer.sl_finish)
      0.0 slots
  in
  Alcotest.(check (float 1e-9)) "makespan is the last finish" max_finish
    r.Installer.pr_makespan

let wide_dag_speedup () =
  let leaves = List.init 8 (fun i -> Printf.sprintf "leaf%d" i) in
  let wide_repo =
    Repository.create
      (make_pkg "wideroot"
         (version "1.0" :: List.map (fun l -> depends_on l) leaves)
      :: List.map (fun l -> make_pkg l [ version "1.0" ]) leaves)
  in
  let ctx = Concretizer.make_ctx ~compilers wide_repo in
  let spec = concretize ~ctx "wideroot" in
  let _, r1 = install_par ~repo:wide_repo ~jobs:1 [ spec ] in
  let _, r4 = install_par ~repo:wide_repo ~jobs:4 [ spec ] in
  Alcotest.(check (float 1e-9)) "same work at every width"
    r1.Installer.pr_serial_seconds r4.Installer.pr_serial_seconds;
  let speedup = Installer.parallel_speedup r4 in
  Alcotest.(check bool)
    (Printf.sprintf "8 independent leaves at -j4 speed up >= 1.5 (got %.2f)"
       speedup)
    true (speedup >= 1.5)

let multi_spec_merging () =
  (* two specs sharing the dyninst sub-DAG: shared nodes schedule once *)
  let a = concretize "mpileaks ^mpich" in
  let b = concretize "dyninst" in
  let _, r = install_par ~jobs:4 [ a; b ] in
  Alcotest.(check int) "shared sub-DAG scheduled once" 5
    (List.length r.Installer.pr_schedule);
  let hashes =
    List.map (fun s -> s.Installer.sl_hash) r.Installer.pr_schedule
  in
  Alcotest.(check int) "hashes unique" 5
    (List.length (List.sort_uniq String.compare hashes));
  (* both roots are explicit in the merged install *)
  let db_of (inst, _) = Installer.database inst in
  let db = db_of (install_par ~jobs:2 [ a; b ]) in
  let explicit =
    List.filter (fun r -> r.Database.r_explicit) (Database.all db)
    |> List.map (fun r -> Concrete.root r.Database.r_spec)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "both roots explicit"
    [ "dyninst"; "mpileaks" ] explicit

let jobs_validation () =
  let inst = Installer.create ~vfs:(Vfs.create ()) ~repo ~compilers () in
  match Installer.install_parallel inst ~jobs:0 [ concretize "libelf" ] with
  | Ok _ -> Alcotest.fail "jobs = 0 must be rejected"
  | Error e ->
      Alcotest.(check bool) "message names the bound" true
        (Astring.String.is_infix ~affix:"jobs must be >= 1" e)

(* --- observability: deterministic traces, scheduler counters --- *)

let trace_determinism () =
  let spec = concretize "mpileaks ^mpich" in
  let run () =
    let obs = Obs.create () in
    let _, r = install_par ~obs ~jobs:4 [ spec ] in
    Alcotest.(check bool) "no failures" true (r.Installer.pr_failures = []);
    Json.to_string ~indent:2 (Obs.to_chrome_trace obs)
  in
  let first = run () and second = run () in
  Alcotest.(check bool) "two -j4 traces byte-identical" true (first = second);
  Alcotest.(check bool) "trace mentions the schedule span" true
    (Astring.String.is_infix ~affix:"schedule" first);
  Alcotest.(check bool) "trace mentions worker spans" true
    (Astring.String.is_infix ~affix:"worker 3" first)

let scheduler_counters () =
  let spec = concretize "mpileaks ^mpich" in
  let obs = Obs.create () in
  let _, _ = install_par ~obs ~jobs:2 [ spec ] in
  Alcotest.(check int) "one dispatch per node" 5
    (Obs.counter obs "sched.dispatches");
  let hist = Obs.histograms obs in
  Alcotest.(check bool) "ready-queue histogram recorded" true
    (List.mem_assoc "sched.ready_queue" hist);
  let idle = List.assoc "sched.idle_seconds" hist in
  Alcotest.(check int) "idle sampled at every dispatch" 5
    idle.Obs.h_count

(* --- partial failure: poisoning, typed report, index consistency --- *)

let corrupted_mirror vfs =
  let mirror = Mirror.create vfs ~root:"/mirror" in
  (match Mirror.populate mirror repo with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "populate: %s" (Vfs.error_to_string e));
  let version = Ospack_version.Version.of_string "8.2" in
  let path = "/mirror/" ^ Mirror.archive_rel ~name:"dyninst" ~version in
  (match Vfs.write_file vfs path "TAMPERED" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "corrupt archive: %s" (Vfs.error_to_string e));
  mirror

let parallel_partial_failure () =
  let vfs = Vfs.create () in
  let mirror = corrupted_mirror vfs in
  let inst = Installer.create ~mirror ~vfs ~repo ~compilers () in
  let r =
    match
      Installer.install_parallel inst ~jobs:2 [ concretize "mpileaks ^mpich" ]
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "scheduler error: %s" e
  in
  (* the failed node carries the builder's typed staging error *)
  (match r.Installer.pr_failures with
  | Installer.Failed
      { f_node = "dyninst"; f_error = Installer.Build_failure (Builder.Staging _); _ }
    :: _ ->
      ()
  | f :: _ -> Alcotest.failf "unexpected first failure: %s" (Installer.failure_to_string f)
  | [] -> Alcotest.fail "expected failures");
  (* only the dependents of dyninst are poisoned, with the cause named *)
  let poisoned =
    List.filter_map
      (function
        | Installer.Poisoned { p_node; p_failed_deps; _ } ->
            Some (p_node, p_failed_deps)
        | Installer.Failed _ -> None)
      r.Installer.pr_failures
  in
  Alcotest.(check (list (pair string (list string))))
    "dependents poisoned, causes named"
    [ ("callpath", [ "dyninst" ]); ("mpileaks", [ "dyninst" ]) ]
    (List.sort compare poisoned);
  (* the independent subtree kept building *)
  Alcotest.(check (slist string String.compare))
    "independent nodes still installed" [ "libelf"; "mpich" ]
    (List.map outcome_name r.Installer.pr_outcomes);
  (* crash consistency: the on-disk index reflects every completed node *)
  let fresh = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.load_index fresh with
  | Ok n -> Alcotest.(check int) "survivors indexed on disk" 2 n
  | Error e -> Alcotest.failf "load_index: %s" e);
  Alcotest.(check (slist string String.compare))
    "indexed names are the survivors" [ "libelf"; "mpich" ]
    (List.map
       (fun rec_ -> Concrete.root rec_.Database.r_spec)
       (Database.all (Installer.database fresh)));
  (* the rendered report counts both classes *)
  let rendered = Installer.failures_to_string r.Installer.pr_failures in
  Alcotest.(check bool) "report counts failed and poisoned" true
    (Astring.String.is_infix ~affix:"1 node(s) failed (2 more" rendered)

let serial_failure_persists_index () =
  (* regression: a mid-DAG serial failure used to leave completed
     prefixes with no index record *)
  let vfs = Vfs.create () in
  let mirror = corrupted_mirror vfs in
  let inst = Installer.create ~mirror ~vfs ~repo ~compilers () in
  (match Installer.install inst (concretize "mpileaks ^mpich") with
  | Ok _ -> Alcotest.fail "corrupted archive must fail the install"
  | Error e ->
      Alcotest.(check bool) "error names the checksum failure" true
        (Astring.String.is_infix ~affix:"checksum mismatch" e));
  let survivors = Database.count (Installer.database inst) in
  Alcotest.(check bool) "something completed before the failure" true
    (survivors >= 1);
  let fresh = Installer.create ~vfs ~repo ~compilers () in
  match Installer.load_index fresh with
  | Ok n -> Alcotest.(check int) "index matches the survivors" survivors n
  | Error e -> Alcotest.failf "load_index: %s" e

(* -j1 fails exactly like -jN: the failed node poisons only its own
   dependents, and the independent mpich branch still installs *)
let j1_failure_spares_independent_branch () =
  let vfs = Vfs.create () in
  let mirror = corrupted_mirror vfs in
  let inst = Installer.create ~mirror ~vfs ~repo ~compilers () in
  (match Installer.install inst (concretize "mpileaks ^mpich") with
  | Ok _ -> Alcotest.fail "corrupted archive must fail the install"
  | Error e ->
      Alcotest.(check bool) "error names the failed node" true
        (Astring.String.is_infix ~affix:"  dyninst: " e));
  let fresh = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.load_index fresh with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load_index: %s" e);
  Alcotest.(check (slist string String.compare))
    "both independent nodes installed and indexed" [ "libelf"; "mpich" ]
    (List.map
       (fun r -> Concrete.root r.Database.r_spec)
       (Database.all (Installer.database fresh)))

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "store equivalence across -j" `Quick
            store_equivalence_across_j;
          Alcotest.test_case "-j1 matches the serial order" `Quick
            j1_matches_serial_order;
          Alcotest.test_case "schedule sanity" `Quick schedule_sanity;
          Alcotest.test_case "wide DAG speedup" `Quick wide_dag_speedup;
          Alcotest.test_case "multi-spec merging" `Quick multi_spec_merging;
          Alcotest.test_case "jobs validation" `Quick jobs_validation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "byte-identical traces" `Quick trace_determinism;
          Alcotest.test_case "scheduler counters" `Quick scheduler_counters;
        ] );
      ( "failure handling",
        [
          Alcotest.test_case "poisoning + index consistency" `Quick
            parallel_partial_failure;
          Alcotest.test_case "serial failure persists index" `Quick
            serial_failure_persists_index;
          Alcotest.test_case "-j1 failure spares independent branches" `Quick
            j1_failure_spares_independent_branch;
        ] );
    ]
