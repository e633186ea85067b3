(* Environments: a manifest of root specs solved together — the
   composition of the paper's machinery (unified concretization, hashed
   installs, lockfile provenance like §3.4.3, merged views like §4.3.1)
   into the workflow HPC teams actually run: one solve, a committed
   lockfile, reproducible activation.

   Run with: dune exec examples/environments.exe *)

module Environment = Ospack.Environment
module Concrete = Ospack_spec.Concrete
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Vfs = Ospack_vfs.Vfs

let section title = Printf.printf "\n=== %s ===\n%!" title

let ok = function
  | Ok x -> x
  | Error e ->
      prerr_endline e;
      exit 1

let () =
  let ctx = Ospack.Context.create () in

  section "Create a 'tools' environment with a merged view";
  let env = ok (Environment.create ctx ~name:"tools" ~view:"/opt/tools" ()) in
  let env = ok (Environment.add ctx env "stat +gui") in
  let env = ok (Environment.add ctx env "mpileaks ^mvapich2@1.9") in
  let env = ok (Environment.add ctx env "tau") in
  List.iter
    (fun (root, installed) ->
      Printf.printf "  %-28s installed=%b\n" root installed)
    (Environment.status ctx env);

  section "Install: one unified solve, one parallel install (-j 4)";
  let report = ok (Environment.install ~jobs:4 ctx env) in
  List.iter
    (fun (root, c) ->
      Printf.printf "  %-28s -> %s (%d nodes)\n" root
        (Concrete.node_to_string (Concrete.root_node c))
        (Concrete.node_count c))
    report.Environment.er_roots;
  let outcomes = report.Environment.er_report.Installer.pr_outcomes in
  let built =
    List.length (List.filter (fun o -> not o.Installer.o_reused) outcomes)
  in
  Printf.printf
    "  merged environment DAG: %d nodes built (shared sub-DAGs solved and \
     installed once), %d files linked into the view\n"
    built report.Environment.er_linked;
  List.iter
    (fun (root, installed) ->
      Printf.printf "  %-28s installed=%b\n" root installed)
    (Environment.status ctx env);

  section "The merged view is one usable tree";
  (match Vfs.ls ctx.Ospack.Context.vfs "/opt/tools/bin" with
  | Ok entries ->
      Printf.printf "/opt/tools/bin: %d tools (%s ...)\n" (List.length entries)
        (String.concat " "
           (List.filteri (fun i _ -> i < 6) entries))
  | Error _ -> ());

  section "The lockfile records the exact concrete DAGs, fingerprinted";
  let lock = Result.get_ok (Environment.read_lock ctx env) in
  List.iter
    (fun (part, fp) ->
      Printf.printf "%s fingerprint %s..\n" part (String.sub fp 0 12))
    lock.Environment.lk_fingerprint;
  List.iter
    (fun (_, c) ->
      Printf.printf "  %s (%d nodes, hash %s)\n"
        (Concrete.node_to_string (Concrete.root_node c))
        (Concrete.node_count c) (Concrete.root_hash c))
    lock.Environment.lk_specs;

  section "Wipe the store; replay the lockfile byte-for-byte";
  let db = Installer.database ctx.Ospack.Context.installer in
  List.iter
    (fun (r : Database.record) ->
      if r.Database.r_explicit then
        ignore (Ospack.uninstall ctx ("/" ^ r.Database.r_hash)))
    (Database.all db);
  ignore (ok (Ospack.gc ctx));
  Printf.printf "store after gc: %d records\n" (Database.count db);
  let replay =
    match Environment.install_locked ~jobs:4 ctx env with
    | Ok r -> r
    | Error e ->
        prerr_endline (Environment.locked_error_to_string e);
        exit 1
  in
  Printf.printf
    "locked replay reinstalled %d roots; store back to %d records\n"
    (List.length replay.Environment.er_roots)
    (Database.count db);
  List.iter
    (fun (root, c) ->
      Printf.printf "  %-28s lock %s installed=%b\n" root
        (Concrete.root_hash c)
        (Database.find_by_hash db (Concrete.root_hash c) <> None))
    replay.Environment.er_roots
