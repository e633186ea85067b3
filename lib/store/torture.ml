module Vfs = Ospack_vfs.Vfs
module Concrete = Ospack_spec.Concrete
module Obs = Ospack_obs.Obs

(* Crash-consistency torture: run a reference install to completion,
   counting write barriers; then, for every selected barrier, replay the
   install on a fresh filesystem with a Crash-mode fault plan armed at
   that barrier, recover with a fresh installer, and check the store
   invariants. Determinism does the heavy lifting — before the injected
   barrier the replay is byte-for-byte the reference run, so barrier k is
   always reached and the post-crash state is exactly "the reference run,
   killed at its k-th durability boundary". *)

type report = {
  tr_jobs : int;
  tr_specs : int;
  tr_barriers : int;
  tr_kills : int;
  tr_orphans : int;
  tr_lost_nodes : int;
}

let report_to_string r =
  Printf.sprintf
    "torture -j%d: %d spec%s, %d barriers, %d kill point%s survived (%d \
     orphan prefix%s recovered, %d index record%s lost and reinstalled)"
    r.tr_jobs r.tr_specs
    (if r.tr_specs = 1 then "" else "s")
    r.tr_barriers r.tr_kills
    (if r.tr_kills = 1 then "" else "s")
    r.tr_orphans
    (if r.tr_orphans = 1 then "" else "es")
    r.tr_lost_nodes
    (if r.tr_lost_nodes = 1 then "" else "s")

let ( let* ) = Result.bind

(* One line per node of the store tree: kind, path, and payload (file
   content / symlink target), so two snapshots compare with (=). *)
let snapshot_tree vfs root =
  Vfs.walk vfs root
  |> List.map (fun (p, k) ->
         match k with
         | Vfs.File -> (
             match Vfs.read_file vfs p with
             | Ok c -> ("file " ^ p, c)
             | Error e ->
                 ("file " ^ p, "<unreadable: " ^ Vfs.error_to_string e ^ ">"))
         | Vfs.Dir -> ("dir " ^ p, "")
         | Vfs.Symlink -> (
             match Vfs.readlink vfs p with
             | Ok t -> ("symlink " ^ p, t)
             | Error e ->
                 ("symlink " ^ p, "<unreadable: " ^ Vfs.error_to_string e ^ ">")))

let snapshot_index db =
  Database.all db
  |> List.map (fun r -> Ospack_json.Json.to_string (Database.record_to_json r))

let under path ~prefix =
  path = prefix || String.starts_with ~prefix:(prefix ^ "/") path

let run ?(jobs = 1) ?(every = 1) ?config ~repo ~compilers specs =
  if jobs < 1 then Error "torture: jobs must be >= 1"
  else if every < 1 then Error "torture: every must be >= 1"
  else if specs = [] then Error "torture: no specs to install"
  else
    let fresh_world ?(obs = Obs.disabled) () =
      let vfs = Vfs.create () in
      (vfs, Installer.create ?config ~obs ~vfs ~repo ~compilers ())
    in
    let install_all inst =
      let* r = Installer.install_parallel inst ~jobs specs in
      match r.Installer.pr_failures with
      | [] -> Ok ()
      | failures -> Error (Installer.failures_to_string failures)
    in
    (* reference run: no faults, count the durability boundaries *)
    let ref_vfs, ref_inst = fresh_world () in
    let* () =
      Result.map_error
        (fun e -> "torture: reference run failed: " ^ e)
        (install_all ref_inst)
    in
    let barriers = Vfs.write_barriers ref_vfs in
    let root = Installer.install_root ref_inst in
    let db_root = root ^ "/.spack-db" in
    let ref_index = snapshot_index (Installer.database ref_inst) in
    let ref_tree = snapshot_tree ref_vfs root in
    let ref_count = List.length ref_index in
    let fail k fmt =
      Printf.ksprintf
        (fun s -> Error (Printf.sprintf "kill point %d: %s" k s))
        fmt
    in
    let torture_at k =
      let vfs, inst = fresh_world () in
      Vfs.set_fault_plan vfs ~mode:Vfs.Crash [ k ];
      let crashed = install_all inst in
      Vfs.clear_fault_plan vfs;
      let* () =
        match crashed with
        | Ok () -> fail k "install survived an armed crash plan"
        | Error _ -> Ok ()
      in
      (* a fresh process opens the same store: load + crash recovery *)
      let recovery = Obs.create () in
      let reloaded =
        Installer.create ?config ~obs:recovery ~vfs ~repo ~compilers ()
      in
      let* (_ : int) =
        Result.map_error
          (fun e -> Printf.sprintf "kill point %d: reload: %s" k e)
          (Installer.load_index reloaded)
      in
      let loaded_index = snapshot_index (Installer.database reloaded) in
      (* invariant 1: the reloaded store is a prefix of the completed one —
         every surviving record is byte-identical to the reference's *)
      let* () =
        List.fold_left
          (fun acc r ->
            let* () = acc in
            if List.mem r ref_index then Ok ()
            else
              fail k "reloaded record is not part of the completed store: %s" r)
          (Ok ()) loaded_index
      in
      (* invariant 2: no unindexed orphans — after recovery, every file
         and symlink under the store (outside the db's own bookkeeping)
         belongs to a loaded record's prefix *)
      let prefixes =
        List.map
          (fun (r : Database.record) -> r.Database.r_prefix)
          (Database.all (Installer.database reloaded))
      in
      let* () =
        List.fold_left
          (fun acc (p, kind) ->
            let* () = acc in
            match kind with
            | Vfs.Dir -> Ok ()
            | Vfs.File | Vfs.Symlink ->
                if under p ~prefix:db_root then Ok ()
                else if
                  List.exists (fun pre -> under p ~prefix:pre) prefixes
                then Ok ()
                else fail k "unindexed orphan survived recovery: %s" p)
          (Ok ())
          (Vfs.walk vfs root)
      in
      (* invariant 3: the recovered store completes to exactly the
         reference — same index, same bytes *)
      let* () =
        Result.map_error
          (fun e -> Printf.sprintf "kill point %d: reinstall failed: %s" k e)
          (install_all reloaded)
      in
      let* () =
        if snapshot_index (Installer.database reloaded) = ref_index then Ok ()
        else fail k "completed index diverged from the reference run"
      in
      let* () =
        if snapshot_tree vfs root = ref_tree then Ok ()
        else fail k "completed store bytes diverged from the reference run"
      in
      Ok
        ( Obs.counter recovery "db.recovered_orphans",
          ref_count - List.length loaded_index )
    in
    let rec go k kills orphans lost =
      if k > barriers then
        Ok
          {
            tr_jobs = jobs;
            tr_specs = List.length specs;
            tr_barriers = barriers;
            tr_kills = kills;
            tr_orphans = orphans;
            tr_lost_nodes = lost;
          }
      else
        let* o, l = torture_at k in
        go (k + every) (kills + 1) (orphans + o) (lost + l)
    in
    go 1 0 0 0
