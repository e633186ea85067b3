module Vfs = Ospack_vfs.Vfs
module Vpath = Ospack_vfs.Vpath
module Concrete = Ospack_spec.Concrete
module Obs = Ospack_obs.Obs

(* Crash-consistency torture of the store: an install is the operation
   Vfs.crash_sweep kills at every selected barrier; a fresh installer
   recovering the crashed store and the three store invariants are the
   check. *)

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

let snapshot_index db =
  Database.all db
  |> List.map (fun r -> Ospack_json.Json.to_string (Database.record_to_json r))

let run ?(jobs = 1) ?every ?config ~repo ~compilers specs =
  if jobs < 1 then Error "torture: jobs must be >= 1"
  else if specs = [] then Error "torture: no specs to install"
  else
    let installer ?obs vfs =
      Installer.create ?config ?obs ~vfs ~repo ~compilers ()
    in
    let install_all inst =
      let* r = Installer.install_parallel inst ~jobs specs in
      match r.Installer.pr_failures with
      | [] -> Ok ()
      | failures -> Error (Installer.failures_to_string failures)
    in
    let world () =
      let vfs = Vfs.create () in
      (vfs, installer vfs)
    in
    let check (ref_vfs, ref_inst, ()) =
      let root = Installer.install_root ref_inst in
      let db_root = root ^ "/.spack-db" in
      let ref_index = snapshot_index (Installer.database ref_inst) in
      let ref_tree = Vfs.snapshot ref_vfs root in
      fun ~kill:_ vfs _crashed ->
        (* a fresh process opens the same store: load + crash recovery *)
        let recovery = Obs.create () in
        let reloaded = installer ~obs:recovery vfs in
        let* (_ : int) =
          Result.map_error (( ^ ) "reload: ") (Installer.load_index reloaded)
        in
        let loaded = Database.all (Installer.database reloaded) in
        let loaded_index = snapshot_index (Installer.database reloaded) in
        (* invariant 1: the reloaded store is a prefix of the completed
           one — every surviving record is byte-identical to the
           reference's *)
        let* () =
          match
            List.find_opt (fun r -> not (List.mem r ref_index)) loaded_index
          with
          | Some r ->
              Error ("reloaded record is not part of the completed store: " ^ r)
          | None -> Ok ()
        in
        (* invariant 2: no unindexed orphans — after recovery, every file
           and symlink under the store (outside the db's own bookkeeping)
           belongs to a loaded record's prefix *)
        let indexed p =
          Vpath.under ~prefix:db_root p
          || List.exists
               (fun (r : Database.record) -> Vpath.under ~prefix:r.r_prefix p)
               loaded
        in
        let* () =
          match
            List.find_opt
              (fun (p, kind) -> kind <> Vfs.Dir && not (indexed p))
              (Vfs.walk vfs root)
          with
          | Some (p, _) -> Error ("unindexed orphan survived recovery: " ^ p)
          | None -> Ok ()
        in
        (* invariant 3: the recovered store completes to exactly the
           reference — same index, same bytes *)
        let* () =
          Result.map_error (( ^ ) "reinstall failed: ") (install_all reloaded)
        in
        let* () =
          if snapshot_index (Installer.database reloaded) = ref_index then Ok ()
          else Error "completed index diverged from the reference run"
        in
        let* () =
          if Vfs.snapshot vfs root = ref_tree then Ok ()
          else Error "completed store bytes diverged from the reference run"
        in
        Ok
          ( Obs.counter recovery "db.recovered_orphans",
            List.length ref_index - List.length loaded_index )
    in
    let* sweep =
      Result.map_error (( ^ ) "torture: ")
        (Vfs.crash_sweep ?every ~world ~op:install_all ~check ())
    in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 sweep.sw_kills in
    Ok
      {
        tr_jobs = jobs;
        tr_specs = List.length specs;
        tr_barriers = sweep.sw_barriers;
        tr_kills = List.length sweep.sw_kills;
        tr_orphans = sum fst;
        tr_lost_nodes = sum snd;
      }
