(* The install store: database queries, bottom-up installation with
   sub-DAG reuse (paper Fig. 9), uninstall safety, and provenance
   (§3.4.3). *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Concretizer = Ospack_concretize.Concretizer
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Provenance = Ospack_store.Provenance
module Sharded_dir = Ospack_vfs.Sharded_dir
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

let fresh () =
  let vfs = Vfs.create () in
  (vfs, Installer.create ~vfs ~repo ~compilers ())

let install inst spec =
  match Installer.install inst (concretize spec) with
  | Ok outcomes -> outcomes
  | Error e -> Alcotest.failf "install %s: %s" spec e

(* --- database --- *)

let database_queries () =
  let _, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  Alcotest.(check int) "five records" 5 (Database.count db);
  Alcotest.(check int) "one mpileaks" 1
    (List.length (Database.find_by_name db "mpileaks"));
  (* find_satisfying with abstract queries *)
  let q s = Database.find_satisfying db (Parser.parse_exn s) in
  Alcotest.(check int) "query by name" 1 (List.length (q "mpileaks"));
  Alcotest.(check int) "query by dep" 1 (List.length (q "mpileaks ^libelf@0.8.13"));
  Alcotest.(check int) "query by virtual" 1 (List.length (q "mpileaks ^mpi"));
  Alcotest.(check int) "provider satisfies virtual query" 1
    (List.length (q "mpi"));
  Alcotest.(check int) "mismatched version" 0 (List.length (q "mpileaks@2:"));
  (* explicit flag: only the root is explicit *)
  let explicit = List.filter (fun r -> r.Database.r_explicit) (Database.all db) in
  Alcotest.(check (list string)) "explicit root only" [ "mpileaks" ]
    (List.map (fun r -> Concrete.root r.Database.r_spec) explicit)

let dependents_tracking () =
  let _, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let hash_of name =
    match Database.find_by_name db name with
    | [ r ] -> r.Database.r_hash
    | _ -> Alcotest.failf "expected one %s" name
  in
  let deps_of_libelf = Database.dependents_of db (hash_of "libelf") in
  Alcotest.(check (slist string compare)) "libelf dependents"
    [ "callpath"; "dyninst"; "mpileaks" ]
    (List.map (fun r -> Concrete.root r.Database.r_spec) deps_of_libelf);
  Alcotest.(check (list string)) "root has no dependents" []
    (List.map
       (fun r -> Concrete.root r.Database.r_spec)
       (Database.dependents_of db (hash_of "mpileaks")));
  (* removal refuses while dependents exist *)
  Alcotest.(check bool) "remove libelf refused" true
    (Result.is_error (Database.remove db (hash_of "libelf")));
  Alcotest.(check bool) "remove root ok" true
    (Result.is_ok (Database.remove db (hash_of "mpileaks")))

(* --- installer --- *)

let bottom_up_install () =
  let vfs, inst = fresh () in
  let outcomes = install inst "mpileaks ^mpich" in
  Alcotest.(check int) "five builds" 5 (List.length outcomes);
  Alcotest.(check bool) "nothing reused on first install" true
    (List.for_all (fun o -> not o.Installer.o_reused) outcomes);
  (* dependencies install before dependents *)
  let order =
    List.map
      (fun o -> Concrete.root o.Installer.o_record.Database.r_spec)
      outcomes
  in
  let pos x =
    let rec go i = function
      | [] -> -1
      | y :: r -> if x = y then i else go (i + 1) r
    in
    go 0 order
  in
  Alcotest.(check bool) "libelf before dyninst" true (pos "libelf" < pos "dyninst");
  Alcotest.(check bool) "root last" true (pos "mpileaks" = 4);
  (* prefixes exist with provenance and artifacts *)
  List.iter
    (fun o ->
      let prefix = o.Installer.o_record.Database.r_prefix in
      Alcotest.(check bool) (prefix ^ " exists") true (Vfs.is_dir vfs prefix);
      Alcotest.(check bool) (prefix ^ " has spec file") true
        (Provenance.read_spec vfs ~prefix <> None))
    outcomes

(* Fig. 9: installing with a second MPI reuses the dyninst sub-DAG *)
let subdag_reuse () =
  let _, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let second = install inst "mpileaks ^openmpi" in
  let reused, built =
    List.partition (fun o -> o.Installer.o_reused) second
  in
  let names l =
    List.map (fun o -> Concrete.root o.Installer.o_record.Database.r_spec) l
    |> List.sort compare
  in
  Alcotest.(check (list string)) "dyninst chain reused"
    [ "callpath"; "dyninst"; "libelf" ]
    (names reused);
  Alcotest.(check (list string)) "only MPI-dependent parts rebuilt"
    [ "mpileaks"; "openmpi" ]
    (names built);
  Alcotest.(check int) "7 records total, not 10" 7
    (Database.count (Installer.database inst));
  (* third install of the same thing: everything reused *)
  let third = install inst "mpileaks ^openmpi" in
  Alcotest.(check bool) "idempotent" true
    (List.for_all (fun o -> o.Installer.o_reused) third)

let uninstall_safety () =
  let vfs, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let hash_of name =
    match Database.find_by_name db name with
    | [ r ] -> r.Database.r_hash
    | _ -> Alcotest.failf "expected one %s" name
  in
  (match Installer.uninstall inst ~hash:(hash_of "libelf") with
  | Ok _ -> Alcotest.fail "uninstalling a dependency must fail"
  | Error msg ->
      Alcotest.(check bool) "error names a dependent" true
        (Astring.String.is_infix ~affix:"dyninst" msg));
  let root_hash = hash_of "mpileaks" in
  let root_prefix =
    (Option.get (Database.find_by_hash db root_hash)).Database.r_prefix
  in
  (match Installer.uninstall inst ~hash:root_hash with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "root uninstall failed: %s" e);
  Alcotest.(check bool) "prefix removed" false (Vfs.exists vfs root_prefix);
  Alcotest.(check int) "record gone" 4 (Database.count db)

let provenance_content () =
  let vfs, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let r = List.hd (Database.find_by_name db "mpileaks") in
  let prefix = r.Database.r_prefix in
  (match Provenance.read_spec vfs ~prefix with
  | Some line ->
      (* the stored spec re-parses and pins the same configuration *)
      let ast = Parser.parse_exn line in
      Alcotest.(check bool) "stored spec satisfied by the install" true
        (Concrete.satisfies r.Database.r_spec ast)
  | None -> Alcotest.fail "spec file missing");
  (match Provenance.read_log vfs ~prefix with
  | Some lines -> Alcotest.(check bool) "log nonempty" true (lines <> [])
  | None -> Alcotest.fail "build log missing");
  match Provenance.read_package_source vfs ~prefix with
  | Some src -> Alcotest.(check string) "package source" "builtin:mpileaks" src
  | None -> Alcotest.fail "package source missing"

let spec_json_survives_drift () =
  (* §3.4.3: the structured provenance restores the exact DAG even if
     concretization preferences have changed since the install *)
  let vfs, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let r = List.hd (Database.find_by_name db "mpileaks") in
  let stored =
    match Provenance.read_spec_json vfs ~prefix:r.Database.r_prefix with
    | Ok c -> c
    | Error e -> Alcotest.failf "spec.json: %s" e
  in
  Alcotest.(check bool) "exact DAG restored" true
    (Concrete.equal stored r.Database.r_spec);
  Alcotest.(check string) "same hash" r.Database.r_hash
    (Concrete.root_hash stored);
  (* a second installer with drifted preferences installs the stored spec
     to the very same configuration, bypassing its own concretizer *)
  let drifted =
    Installer.create
      ~config:
        (Ospack_config.Config.of_assoc
           [ ("packages.libelf.version", "0.8.13") ])
      ~vfs:(Vfs.create ()) ~repo ~compilers ()
  in
  match Installer.install drifted stored with
  | Ok outcomes ->
      let root = List.nth outcomes (List.length outcomes - 1) in
      Alcotest.(check string) "identical hash under drifted config"
        r.Database.r_hash root.Installer.o_record.Database.r_hash
  | Error e -> Alcotest.failf "drifted install: %s" e

(* §4.4: external (vendor/site) packages are used instead of building *)
let external_packages () =
  let vfs = Vfs.create () in
  let config =
    Ospack_config.Config.of_assoc
      [
        ( "externals.mpich",
          "mpich@3.0.4 | /opt/vendor/mpich-3.0.4" );
      ]
  in
  let inst = Installer.create ~config ~vfs ~repo ~compilers () in
  let outcomes =
    match Installer.install inst (concretize "mpileaks ^mpich") with
    | Ok o -> o
    | Error e -> Alcotest.failf "install: %s" e
  in
  let mpich_outcome =
    List.find
      (fun o -> Concrete.root o.Installer.o_record.Database.r_spec = "mpich")
      outcomes
  in
  let r = mpich_outcome.Installer.o_record in
  Alcotest.(check bool) "marked external" true r.Database.r_external;
  Alcotest.(check string) "vendor prefix used" "/opt/vendor/mpich-3.0.4"
    r.Database.r_prefix;
  Alcotest.(check bool) "no simulated build time" true
    (r.Database.r_build_seconds = 0.0);
  (* vendor artifacts materialized so dependents resolve *)
  Alcotest.(check bool) "vendor library present" true
    (Vfs.is_file vfs "/opt/vendor/mpich-3.0.4/lib/libmpich.so");
  (* the dependent was built against the vendor prefix: its RPATH points
     there and it runs with an empty environment *)
  let root =
    List.find
      (fun o -> Concrete.root o.Installer.o_record.Database.r_spec = "mpileaks")
      outcomes
  in
  let exe = root.Installer.o_record.Database.r_prefix ^ "/bin/mpileaks" in
  Alcotest.(check bool) "dependent resolves vendor lib" true
    (Ospack_buildsim.Loader.can_run vfs ~path:exe
       ~env:Ospack_buildsim.Env.empty);
  (* uninstalling the external removes the record but not the vendor tree *)
  (match Installer.uninstall inst ~hash:root.Installer.o_record.Database.r_hash with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uninstall root: %s" e);
  (match Installer.uninstall inst ~hash:r.Database.r_hash with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uninstall external: %s" e);
  Alcotest.(check bool) "vendor prefix untouched" true
    (Vfs.is_dir vfs "/opt/vendor/mpich-3.0.4")

let external_spec_mismatch () =
  (* the declared external must actually satisfy the concretized node *)
  let vfs = Vfs.create () in
  let config =
    Ospack_config.Config.of_assoc
      [ ("externals.mpich", "mpich@1.4 | /opt/vendor/old-mpich") ]
  in
  let inst = Installer.create ~config ~vfs ~repo ~compilers () in
  match Installer.install inst (concretize "mpileaks ^mpich") with
  | Ok outcomes ->
      let mpich =
        List.find
          (fun o ->
            Concrete.root o.Installer.o_record.Database.r_spec = "mpich")
          outcomes
      in
      Alcotest.(check bool) "built normally (3.0.4 does not match @1.4)" false
        mpich.Installer.o_record.Database.r_external
  | Error e -> Alcotest.failf "install: %s" e

let buildcache_roundtrip () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/ospack/buildcache" in
  (* build once, push everything to the cache *)
  let builder = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.install builder (concretize "mpileaks ^mpich") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "build: %s" e);
  (match Installer.push_to_cache builder cache with
  | Ok n -> Alcotest.(check int) "five entries pushed" 5 n
  | Error e -> Alcotest.failf "push: %s" e);
  Alcotest.(check int) "cache lists them" 5
    (List.length (Ospack_store.Buildcache.cached_hashes cache));
  (* a second store on the same filesystem, DIFFERENT install root,
     pulls from the cache instead of building *)
  let puller =
    Installer.create ~install_root:"/elsewhere/opt" ~cache ~vfs ~repo
      ~compilers ()
  in
  (match Installer.install puller (concretize "mpileaks ^mpich") with
  | Ok outcomes ->
      Alcotest.(check bool) "all from cache" true
        (List.for_all (fun o -> o.Installer.o_cached) outcomes);
      Alcotest.(check bool) "no simulated build time" true
        (Installer.total_build_seconds puller = 0.0);
      (* relocation: the pulled binary's RPATHs point into the NEW root
         and the binary runs bare *)
      let root = List.nth outcomes (List.length outcomes - 1) in
      let prefix = root.Installer.o_record.Database.r_prefix in
      Alcotest.(check bool) "prefix under the new root" true
        (Astring.String.is_prefix ~affix:"/elsewhere/opt" prefix);
      (match Vfs.read_file vfs (prefix ^ "/bin/mpileaks") with
      | Ok content ->
          Alcotest.(check bool) "old root scrubbed" false
            (Astring.String.is_infix ~affix:"/ospack/opt" content);
          Alcotest.(check bool) "new root embedded" true
            (Astring.String.is_infix ~affix:"/elsewhere/opt" content)
      | Error _ -> Alcotest.fail "pulled binary missing");
      Alcotest.(check bool) "pulled binary runs with empty env" true
        (Ospack_buildsim.Loader.can_run vfs ~path:(prefix ^ "/bin/mpileaks")
           ~env:Ospack_buildsim.Env.empty)
  | Error e -> Alcotest.failf "pull: %s" e);
  (* relocated pulls still verify clean against their manifests *)
  (let pulled =
     List.hd (Database.find_by_name (Installer.database puller) "mpileaks")
   in
   match
     Provenance.verify_manifest vfs ~prefix:pulled.Database.r_prefix
   with
   | Ok report ->
       Alcotest.(check bool) "relocated prefix verifies clean" true
         (Provenance.report_clean report)
   | Error e -> Alcotest.failf "verify after pull: %s" e);
  (* the manifest written from the extractor's payload is byte-identical
     to one rendered from a walk of the pulled prefix *)
  List.iter
    (fun r ->
      let prefix = r.Database.r_prefix in
      match Vfs.read_file vfs (prefix ^ "/.spack/manifest.json") with
      | Ok written ->
          Alcotest.(check string)
            (r.Database.r_hash ^ " extract-time manifest = walked manifest")
            (Provenance.render_manifest (Provenance.payload vfs ~prefix))
            written
      | Error e ->
          Alcotest.failf "manifest of %s: %s" prefix (Vfs.error_to_string e))
    (Database.all (Installer.database puller));
  (* provenance travels with the archive *)
  let pulled_root =
    List.hd (Database.find_by_name (Installer.database puller) "mpileaks")
  in
  match
    Provenance.read_spec_json vfs ~prefix:pulled_root.Database.r_prefix
  with
  | Ok stored ->
      Alcotest.(check string) "provenance hash matches"
        pulled_root.Database.r_hash (Concrete.root_hash stored)
  | Error e -> Alcotest.failf "provenance after pull: %s" e

(* Builds and splices manifest what they wrote: for every package of the
   universe that concretizes, installed into a fresh store, and for one
   splice, every prefix's manifest (written from the builder's or the
   splice's own payload) equals one rendered from a walk of the prefix,
   and verifies clean. *)
let manifests_from_payloads () =
  let module Context = Ospack.Context in
  let module Commands = Ospack.Commands in
  let check_prefixes what (ctx : Context.t) =
    List.iter
      (fun (r : Database.record) ->
        if not r.Database.r_external then begin
          let prefix = r.Database.r_prefix in
          (match Vfs.read_file ctx.Context.vfs (prefix ^ "/.spack/manifest.json") with
          | Ok written ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s payload manifest = walked manifest" what
                   prefix)
                (Provenance.render_manifest
                   (Provenance.payload ctx.Context.vfs ~prefix))
                written
          | Error e ->
              Alcotest.failf "%s: manifest of %s: %s" what prefix
                (Vfs.error_to_string e));
          match Provenance.verify_manifest ctx.Context.vfs ~prefix with
          | Ok report when Provenance.report_clean report -> ()
          | Ok _ -> Alcotest.failf "%s: %s verifies dirty" what prefix
          | Error e -> Alcotest.failf "%s: verify %s: %s" what prefix e
        end)
      (Database.all (Installer.database ctx.Context.installer))
  in
  let built = ref 0 in
  List.iter
    (fun (p : Ospack_package.Package.t) ->
      let ctx = Context.create () in
      match Commands.spec ctx p.p_name with
      | Error _ -> () (* virtual, or no solution *)
      | Ok _ -> (
          match Commands.install ctx p.p_name with
          | Ok _ ->
              incr built;
              check_prefixes p.p_name ctx
          | Error e -> Alcotest.failf "install %s: %s" p.p_name e))
    (Repository.all_packages (Ospack_repo.Universe.repository ()));
  Alcotest.(check bool)
    (Printf.sprintf "most of the universe built (%d)" !built)
    true (!built >= 200);
  let ctx = Context.create ~cache_root:"/cache" () in
  (match Commands.install ctx "dyninst" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install dyninst: %s" e);
  match Commands.splice ctx "dyninst" ~replace:"libelf@0.8.12" with
  | Ok sp ->
      Alcotest.(check bool) "the splice rewired a binary" true
        (sp.Installer.sp_rewired > 0);
      check_prefixes "splice" ctx
  | Error e -> Alcotest.failf "splice: %s" e

(* save must propagate problems instead of silently skipping entries:
   a record pointing at nothing, or at an empty tree, is an error *)
let buildcache_save_errors () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/cache" in
  let spec = concretize "libelf" in
  let record prefix =
    {
      Database.r_spec = spec;
      r_hash = Concrete.root_hash spec;
      r_prefix = prefix;
      r_explicit = true;
      r_external = false;
      r_build_seconds = 0.0;
    }
  in
  (match
     Ospack_store.Buildcache.save cache ~install_root:"/r1"
       (record "/r1/missing")
   with
  | Ok () -> Alcotest.fail "missing prefix must not archive"
  | Error e ->
      Alcotest.(check bool) "missing prefix named" true
        (Astring.String.is_infix ~affix:"is not a directory"
           (Ospack_store.Buildcache.error_to_string e)));
  (match Vfs.mkdir_p vfs "/r1/empty" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mkdir: %s" (Vfs.error_to_string e));
  match
    Ospack_store.Buildcache.save cache ~install_root:"/r1" (record "/r1/empty")
  with
  | Ok () -> Alcotest.fail "empty prefix must not archive"
  | Error e ->
      Alcotest.(check bool) "empty prefix refused" true
        (Astring.String.is_infix ~affix:"refusing to archive empty prefix"
           (Ospack_store.Buildcache.error_to_string e))

(* re-extraction must replace a symlink whose (relocated) target changed,
   and empty directories must survive the round trip *)
let buildcache_stale_links_and_dirs () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/cache" in
  let ok name = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" name (Vfs.error_to_string e)
  in
  ok "mkdir" (Vfs.mkdir_p vfs "/r1/pkg/bin");
  ok "write" (Vfs.write_file vfs "/r1/pkg/bin/tool" "prefix=/r1/pkg\n");
  ok "link"
    (Vfs.symlink vfs ~target:"/r1/pkg/bin/tool" ~link:"/r1/pkg/current");
  ok "mkdir" (Vfs.mkdir_p vfs "/r1/pkg/share/doc");
  let spec = concretize "libelf" in
  let record =
    {
      Database.r_spec = spec;
      r_hash = Concrete.root_hash spec;
      r_prefix = "/r1/pkg";
      r_explicit = true;
      r_external = false;
      r_build_seconds = 0.0;
    }
  in
  (match Ospack_store.Buildcache.save cache ~install_root:"/r1" record with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "save: %s" (Ospack_store.Buildcache.error_to_string e));
  let extract root =
    match
      Ospack_store.Buildcache.extract cache ~spec ~install_root:root
        ~prefix:"/dest/pkg"
    with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "extract under %s: %s" root
          (Ospack_store.Buildcache.error_to_string e)
  in
  let link_target () =
    match Vfs.readlink vfs "/dest/pkg/current" with
    | Ok t -> t
    | Error e -> Alcotest.failf "readlink: %s" (Vfs.error_to_string e)
  in
  extract "/r1";
  Alcotest.(check string) "first extract keeps the cached target"
    "/r1/pkg/bin/tool" (link_target ());
  Alcotest.(check bool) "empty directory extracted" true
    (Vfs.is_dir vfs "/dest/pkg/share/doc");
  (* same destination, new install root: the old link is stale now *)
  extract "/r2";
  Alcotest.(check string) "stale link re-created with relocated target"
    "/r2/pkg/bin/tool" (link_target ());
  (match Vfs.read_file vfs "/dest/pkg/bin/tool" with
  | Ok c ->
      Alcotest.(check string) "file contents relocated too" "prefix=/r2/pkg\n" c
  | Error e -> Alcotest.failf "read: %s" (Vfs.error_to_string e));
  (* a non-link squatting on the path is replaced as well *)
  ok "remove" (Vfs.remove vfs ~recursive:true "/dest/pkg/current");
  ok "write" (Vfs.write_file vfs "/dest/pkg/current" "not a link");
  extract "/r2";
  Alcotest.(check string) "squatting file replaced by the link"
    "/r2/pkg/bin/tool" (link_target ())

(* an entry whose file list disagrees with its recorded count is
   truncated and must not extract *)
let buildcache_truncated_rejected () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/cache" in
  let spec = concretize "libelf" in
  let hash = Concrete.root_hash spec in
  let module Json = Ospack_json.Json in
  (* a format-2 entry that promises 3 files and holds 1 *)
  let spec_json = Json.to_string (Concrete.to_json spec) in
  let entry =
    Json.to_string
      (Json.Obj
         [
           ("format", Json.Int 2);
           ("install_root", Json.String "/r1");
           ("prefix", Json.String "/r1/pkg");
           ("file_count", Json.Int 3);
           ("spec_bytes", Json.Int (String.length spec_json));
         ])
    ^ "\n" ^ spec_json ^ "\nfile 8 1\nbin/toolx"
  in
  (match
     Vfs.write_file vfs
       (Ospack_store.Buildcache.entry_path cache hash)
       entry
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write entry: %s" (Vfs.error_to_string e));
  match
    Ospack_store.Buildcache.extract cache ~spec ~install_root:"/r2"
      ~prefix:"/dest/pkg"
  with
  | Ok _ -> Alcotest.fail "truncated entry must not extract"
  | Error e ->
      Alcotest.(check bool) "truncation reported with counts" true
        (Astring.String.is_infix ~affix:"truncated entry"
           (Ospack_store.Buildcache.error_to_string e));
      Alcotest.(check bool) "nothing materialized" false
        (Vfs.is_file vfs "/dest/pkg/bin/tool")

(* a refused archive write is a typed error, never an exception *)
let mirror_fault_typed () =
  let vfs = Vfs.create () in
  let mirror = Ospack_buildsim.Mirror.create vfs ~root:"/mirror" in
  Vfs.set_fault_plan vfs [ 3 ];
  (match Ospack_buildsim.Mirror.populate mirror repo with
  | Error (Vfs.Fault_injected _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Vfs.error_to_string e)
  | Ok _ -> Alcotest.fail "populate survived a refused write");
  Vfs.clear_fault_plan vfs;
  match Ospack_buildsim.Mirror.populate mirror repo with
  | Ok n -> Alcotest.(check int) "a rerun mirrors everything" 6 n
  | Error e -> Alcotest.failf "populate: %s" (Vfs.error_to_string e)

let mirror_fetching () =
  let vfs = Vfs.create () in
  let mirror = Ospack_buildsim.Mirror.create vfs ~root:"/mirror" in
  (match Ospack_buildsim.Mirror.populate mirror repo with
  | Ok n -> Alcotest.(check int) "every declared version mirrored" 6 n
  | Error e -> Alcotest.failf "populate: %s" (Vfs.error_to_string e));
  (* builds staged from the mirror verify checksums and log the fetch *)
  let inst = Installer.create ~mirror ~vfs ~repo ~compilers () in
  (match Installer.install inst (concretize "libelf") with
  | Ok outcomes ->
      let r = (List.hd outcomes).Installer.o_record in
      (match Provenance.read_log vfs ~prefix:r.Database.r_prefix with
      | Some log ->
          Alcotest.(check bool) "fetch logged with verification" true
            (List.exists
               (fun l -> Astring.String.is_infix ~affix:"md5 verified" l)
               log)
      | None -> Alcotest.fail "no build log")
  | Error e -> Alcotest.failf "mirrored install: %s" e);
  (* corrupt an archive: the build fails at staging with a checksum error *)
  let version = Ospack_version.Version.of_string "8.2" in
  let path =
    "/mirror/" ^ Ospack_buildsim.Mirror.archive_rel ~name:"dyninst" ~version
  in
  ignore (Vfs.write_file vfs path "TAMPERED");
  (match Installer.install inst (concretize "dyninst") with
  | Ok _ -> Alcotest.fail "corrupted archive must fail"
  | Error e ->
      Alcotest.(check bool) "checksum mismatch reported" true
        (Astring.String.is_infix ~affix:"checksum mismatch" e));
  (* a package missing from the mirror fails too *)
  ignore (Vfs.remove vfs "/mirror/mpich-3.0.4.tar.gz");
  match Installer.install inst (concretize "mpich") with
  | Ok _ -> Alcotest.fail "missing archive must fail"
  | Error e ->
      Alcotest.(check bool) "missing archive reported" true
        (Astring.String.is_infix ~affix:"no archive" e)

(* --- typed accounting: summaries, stats, staging failures --- *)

let summary_classification () =
  let _, inst = fresh () in
  let first = Installer.summary_of_outcomes (install inst "mpileaks ^mpich") in
  Alcotest.(check int) "all built" 5 first.Installer.s_built;
  Alcotest.(check int) "none reused" 0 first.Installer.s_reused;
  Alcotest.(check string) "first summary" "5 built, 0 reused"
    (Installer.summary_to_string first);
  let again = Installer.summary_of_outcomes (install inst "mpileaks ^mpich") in
  Alcotest.(check int) "nothing rebuilt" 0 again.Installer.s_built;
  Alcotest.(check int) "all reused" 5 again.Installer.s_reused;
  Alcotest.(check string) "reuse summary" "0 built, 5 reused"
    (Installer.summary_to_string again);
  (* lifetime stats accumulate across both installs *)
  let st = Installer.stats inst in
  Alcotest.(check int) "stats built" 5 st.Installer.st_built;
  Alcotest.(check int) "stats reused" 5 st.Installer.st_reused;
  Alcotest.(check int) "no cache configured, no misses" 0
    st.Installer.st_cache_misses

let cache_accounting () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/ospack/buildcache" in
  (* seed the cache with just the dyninst sub-DAG *)
  let seeder = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.install seeder (concretize "dyninst") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed: %s" e);
  (match Installer.push_to_cache seeder cache with
  | Ok n -> Alcotest.(check int) "two entries pushed" 2 n
  | Error e -> Alcotest.failf "push: %s" e);
  let puller =
    Installer.create ~install_root:"/elsewhere/opt" ~cache ~vfs ~repo
      ~compilers ()
  in
  let outcomes =
    match Installer.install puller (concretize "mpileaks ^mpich") with
    | Ok o -> o
    | Error e -> Alcotest.failf "pull: %s" e
  in
  (* per-outcome flags: libelf+dyninst are hits, the rest are typed misses *)
  let name o = Concrete.root o.Installer.o_record.Database.r_spec in
  let hits = List.filter (fun o -> o.Installer.o_cached) outcomes in
  let misses = List.filter (fun o -> o.Installer.o_cache_miss) outcomes in
  Alcotest.(check (slist string compare))
    "cache hits" [ "dyninst"; "libelf" ] (List.map name hits);
  Alcotest.(check (slist string compare))
    "cache misses"
    [ "callpath"; "mpich"; "mpileaks" ]
    (List.map name misses);
  let s = Installer.summary_of_outcomes outcomes in
  Alcotest.(check string) "mixed summary"
    "3 built, 0 reused, 2 from cache, 3 cache misses"
    (Installer.summary_to_string s);
  let st = Installer.stats puller in
  Alcotest.(check int) "stats hits" 2 st.Installer.st_cache_hits;
  Alcotest.(check int) "stats misses" 3 st.Installer.st_cache_misses;
  Alcotest.(check int) "stats built" 3 st.Installer.st_built

let staging_failure_accounting () =
  let vfs = Vfs.create () in
  (* an empty mirror: every staging attempt fails before any build step *)
  let mirror = Ospack_buildsim.Mirror.create vfs ~root:"/mirror" in
  let obs = Ospack_obs.Obs.create () in
  let inst = Installer.create ~mirror ~obs ~vfs ~repo ~compilers () in
  (match Installer.install inst (concretize "libelf") with
  | Ok _ -> Alcotest.fail "empty mirror must fail staging"
  | Error e ->
      Alcotest.(check bool) "message still names the archive" true
        (Astring.String.is_infix ~affix:"no archive" e));
  (* the failure is classified from the typed Staging error, not the text *)
  let st = Installer.stats inst in
  Alcotest.(check int) "one staging failure" 1 st.Installer.st_staging_failures;
  Alcotest.(check int) "nothing built" 0 st.Installer.st_built;
  Alcotest.(check int) "obs counter agrees" 1
    (Ospack_obs.Obs.counter obs "install.staging_failures")

let index_persistence () =
  (* a second installer on the same filesystem picks up the store *)
  let vfs = Vfs.create () in
  let first = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.install first (concretize "mpileaks ^mpich") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install: %s" e);
  (* the index persists as one file per record, with no manifest and no
     single-file index *)
  Alcotest.(check bool) "no manifest" false
    (Vfs.exists vfs (Installer.index_dir first ^ "/manifest.json"));
  Alcotest.(check bool) "no single-file index" false
    (Vfs.is_file vfs (Installer.install_root first ^ "/.spack-db/index.json"));
  let records = Database.all (Installer.database first) in
  Alcotest.(check int) "five records" 5 (List.length records);
  List.iter
    (fun (r : Database.record) ->
      let path = Installer.record_path first r.Database.r_hash in
      Alcotest.(check bool) (path ^ " exists") true (Vfs.is_file vfs path))
    records;
  Alcotest.(check (list string)) "record files are the index"
    (List.sort String.compare
       (List.map (fun (r : Database.record) -> r.Database.r_hash) records))
    (Sharded_dir.keys vfs ~root:(Installer.index_dir first));
  Alcotest.(check bool) "index bytes accounted" true
    (Installer.index_bytes_written first > 0);
  let second = Installer.create ~vfs ~repo ~compilers () in
  Alcotest.(check int) "fresh db empty" 0
    (Database.count (Installer.database second));
  (match Installer.load_index second with
  | Ok n -> Alcotest.(check int) "records loaded" 5 n
  | Error e -> Alcotest.failf "load_index: %s" e);
  (* and installs through the second installer are pure reuse *)
  (match Installer.install second (concretize "mpileaks ^mpich") with
  | Ok outcomes ->
      Alcotest.(check bool) "everything reused" true
        (List.for_all (fun o -> o.Installer.o_reused) outcomes)
  | Error e -> Alcotest.failf "reinstall: %s" e);
  (* empty filesystem: loading is a clean no-op *)
  let empty = Installer.create ~vfs:(Vfs.create ()) ~repo ~compilers () in
  Alcotest.(check (result int string)) "no index yet" (Ok 0)
    (Installer.load_index empty)

(* one on-disk format: a record file in any other format is refused,
   typed, and nothing is merged *)
let unsupported_shard_format () =
  let module Json = Ospack_json.Json in
  let vfs, first = fresh () in
  ignore (install first "libelf");
  let hash = (List.hd (Database.all (Installer.database first))).Database.r_hash in
  let path = Installer.record_path first hash in
  let content =
    match Vfs.read_file vfs path with
    | Ok c -> c
    | Error e -> Alcotest.failf "read record: %s" (Vfs.error_to_string e)
  in
  let downgraded =
    match Json.of_string content with
    | Ok (Json.Obj fields) ->
        Json.to_string
          (Json.Obj
             (List.map
                (fun (k, v) -> if k = "format" then (k, Json.Int 1) else (k, v))
                fields))
    | _ -> Alcotest.fail "record file is not a JSON object"
  in
  (match Vfs.write_file vfs path downgraded with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write record: %s" (Vfs.error_to_string e));
  let second = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.load_index second with
  | Ok n -> Alcotest.failf "a format-1 record file loaded %d records" n
  | Error e ->
      Alcotest.(check string) "typed refusal"
        (Installer.store_error_to_string
           (Installer.Store_corrupt
              { se_path = path; se_reason = "unsupported format 1" }))
        e);
  Alcotest.(check int) "nothing merged" 0
    (Database.count (Installer.database second))

(* --- the sharded directory the index, the buildcache and the
   concretization cache use --- *)

let sd_root = "/sd"

let sd_write vfs key content =
  match Sharded_dir.write vfs ~root:sd_root key content with
  | Ok () -> ()
  | Error (op, path, e) ->
      Alcotest.failf "%s %s: %s" op path (Vfs.error_to_string e)

let sd_keys vfs = Sharded_dir.keys vfs ~root:sd_root

let sharded_keys_sorted () =
  let vfs = Vfs.create () in
  List.iter (fun k -> sd_write vfs k k) [ "ff01"; "0a9"; "0a1"; "7c" ];
  Alcotest.(check string) "layout" "/sd/0a/0a1.json"
    (Sharded_dir.path ~root:sd_root "0a1");
  Alcotest.(check (list string)) "sorted" [ "0a1"; "0a9"; "7c"; "ff01" ]
    (sd_keys vfs)

let sharded_keys_sweep_tmp () =
  let vfs = Vfs.create () in
  sd_write vfs "ab12" "x";
  ignore (Vfs.write_file vfs "/sd/ab/ab34.json.tmp" "torn");
  Alcotest.(check (list string)) "tmp never listed" [ "ab12" ] (sd_keys vfs);
  Alcotest.(check bool) "tmp swept" false
    (Vfs.exists vfs "/sd/ab/ab34.json.tmp")

let sharded_keys_ignore_other_names () =
  let vfs = Vfs.create () in
  sd_write vfs "cd56" "x";
  List.iter
    (fun path -> ignore (Vfs.write_file vfs path "{}"))
    [ "/sd/zz/zz99.json"; "/sd/manifest.json"; "/sd/cd.json" ];
  Alcotest.(check (list string)) "only shard documents" [ "cd56" ]
    (sd_keys vfs);
  Alcotest.(check bool) "other names left alone" true
    (List.for_all (Vfs.is_file vfs)
       [ "/sd/zz/zz99.json"; "/sd/manifest.json"; "/sd/cd.json" ])

let sharded_remove () =
  let vfs = Vfs.create () in
  let remove key =
    match Sharded_dir.remove vfs ~root:sd_root key with
    | Ok () -> ()
    | Error e -> Alcotest.failf "remove %s: %s" key (Vfs.error_to_string e)
  in
  List.iter (fun k -> sd_write vfs k k) [ "e101"; "e102"; "f000" ];
  remove "e101";
  Alcotest.(check bool) "non-empty shard kept" true (Vfs.is_dir vfs "/sd/e1");
  remove "f000";
  Alcotest.(check bool) "empty shard dropped" false (Vfs.exists vfs "/sd/f0");
  remove "f000";
  remove "0123";
  Alcotest.(check (list string)) "one left" [ "e102" ] (sd_keys vfs)

let () =
  Alcotest.run "store"
    [
      ( "shard dir",
        [
          Alcotest.test_case "keys sorted" `Quick sharded_keys_sorted;
          Alcotest.test_case "keys sweep a shard's .tmp" `Quick
            sharded_keys_sweep_tmp;
          Alcotest.test_case "keys ignore other names" `Quick
            sharded_keys_ignore_other_names;
          Alcotest.test_case "remove drops empty shards" `Quick
            sharded_remove;
        ] );
      ( "database",
        [
          Alcotest.test_case "queries" `Quick database_queries;
          Alcotest.test_case "dependents" `Quick dependents_tracking;
        ] );
      ( "installer",
        [
          Alcotest.test_case "bottom-up install" `Quick bottom_up_install;
          Alcotest.test_case "sub-DAG reuse (Fig. 9)" `Quick subdag_reuse;
          Alcotest.test_case "uninstall safety" `Quick uninstall_safety;
          Alcotest.test_case "provenance (§3.4.3)" `Quick provenance_content;
          Alcotest.test_case "spec.json immune to preference drift" `Quick
            spec_json_survives_drift;
          Alcotest.test_case "external packages (§4.4)" `Quick
            external_packages;
          Alcotest.test_case "external spec mismatch" `Quick
            external_spec_mismatch;
          Alcotest.test_case "on-disk index persistence" `Quick
            index_persistence;
          Alcotest.test_case "unsupported shard format refused" `Quick
            unsupported_shard_format;
          Alcotest.test_case "binary cache with relocation" `Quick
            buildcache_roundtrip;
          Alcotest.test_case "manifests from build and splice payloads" `Quick
            manifests_from_payloads;
          Alcotest.test_case "buildcache save error propagation" `Quick
            buildcache_save_errors;
          Alcotest.test_case "stale symlinks + empty dirs on re-extract" `Quick
            buildcache_stale_links_and_dirs;
          Alcotest.test_case "truncated cache entry rejected" `Quick
            buildcache_truncated_rejected;
          Alcotest.test_case "mirror fetch + checksum verification" `Quick
            mirror_fetching;
          Alcotest.test_case "mirror write fault typed" `Quick
            mirror_fault_typed;
          Alcotest.test_case "summary classification" `Quick
            summary_classification;
          Alcotest.test_case "buildcache hit/miss accounting" `Quick
            cache_accounting;
          Alcotest.test_case "staging failures counted typed" `Quick
            staging_failure_accounting;
        ] );
    ]
