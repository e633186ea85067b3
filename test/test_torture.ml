(* The crash-consistency torture harness: kill an install at every write
   barrier (serial and -j4), recover, and hold the store invariants —
   the reloaded index is a prefix of the completed store, no unindexed
   orphans survive recovery, and re-running converges to byte-identical
   state. The harness itself does the per-kill assertions; these tests
   drive it across every boundary and sanity-check its accounting. *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Concretizer = Ospack_concretize.Concretizer
module Torture = Ospack_store.Torture
module Vfs = Ospack_vfs.Vfs

let repo =
  Repository.create
    [
      make_pkg "mpileaks"
        [ version "1.0"; depends_on "mpi"; depends_on "callpath" ];
      make_pkg "callpath" [ version "1.0"; depends_on "dyninst" ];
      make_pkg "dyninst" [ version "8.2"; depends_on "libelf" ];
      make_pkg "libelf" [ version "0.8.13" ];
      make_pkg "mpich" [ version "3.0.4"; provides "mpi@:3" ];
      make_pkg "openmpi" [ version "1.8.2"; provides "mpi@:2.2" ];
    ]

let compilers = Compilers.create [ Compilers.toolchain "gcc" "4.9.2" ]
let cctx = Concretizer.make_ctx ~compilers repo

let concretize spec =
  match Concretizer.concretize_string cctx spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "concretize %s: %s" spec e

let run_ok ?jobs ?every specs =
  match
    Torture.run ?jobs ?every ~repo ~compilers (List.map concretize specs)
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let every_boundary_serial () =
  let r = run_ok [ "mpileaks ^mpich" ] in
  Alcotest.(check int) "serial" 1 r.Torture.tr_jobs;
  Alcotest.(check bool) "a real install crosses many barriers" true
    (r.Torture.tr_barriers > 20);
  Alcotest.(check int) "every barrier was a kill point" r.Torture.tr_barriers
    r.Torture.tr_kills;
  (* some kills must land between prefix materialization and index
     durability, otherwise the recovery path was never exercised *)
  Alcotest.(check bool) "orphan recovery exercised" true
    (r.Torture.tr_orphans > 0);
  Alcotest.(check bool) "index-loss recovery exercised" true
    (r.Torture.tr_lost_nodes > 0)

let every_boundary_parallel () =
  (* two roots sharing the callpath/dyninst/libelf sub-DAG: crashes land
     inside a schedule with genuine cross-spec sharing *)
  let r = run_ok ~jobs:4 [ "mpileaks ^mpich"; "callpath" ] in
  Alcotest.(check int) "parallel" 4 r.Torture.tr_jobs;
  Alcotest.(check int) "every barrier was a kill point" r.Torture.tr_barriers
    r.Torture.tr_kills;
  Alcotest.(check bool) "orphan recovery exercised" true
    (r.Torture.tr_orphans > 0)

let sampling_and_validation () =
  let full = run_ok [ "libelf" ] in
  let sampled = run_ok ~every:7 [ "libelf" ] in
  Alcotest.(check int) "same reference barrier count" full.Torture.tr_barriers
    sampled.Torture.tr_barriers;
  Alcotest.(check int) "ceil(barriers / 7) kill points"
    ((full.Torture.tr_barriers + 6) / 7)
    sampled.Torture.tr_kills;
  (* the report renders *)
  Alcotest.(check bool) "report mentions kill points" true
    (Astring.String.is_infix ~affix:"kill point"
       (Torture.report_to_string full));
  (* argument validation *)
  let expect_error msg = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail msg
  in
  expect_error "jobs 0 rejected"
    (Torture.run ~jobs:0 ~repo ~compilers [ concretize "libelf" ]);
  List.iter
    (fun every ->
      Alcotest.(check (result reject string))
        (Printf.sprintf "every %d rejected" every)
        (Error "torture: every must be >= 1")
        (Torture.run ~every ~repo ~compilers [ concretize "libelf" ]))
    [ 0; -3 ];
  expect_error "empty spec list rejected"
    (Torture.run ~repo ~compilers [])

let () =
  Alcotest.run "torture"
    [
      ( "crash consistency",
        [
          Alcotest.test_case "every boundary, serial" `Quick
            every_boundary_serial;
          Alcotest.test_case "every boundary, -j4" `Quick
            every_boundary_parallel;
          Alcotest.test_case "sampling and validation" `Quick
            sampling_and_validation;
        ] );
    ]
