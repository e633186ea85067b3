module Vfs = Ospack_vfs.Vfs
module Sharded_dir = Ospack_vfs.Sharded_dir
module Concrete = Ospack_spec.Concrete
module Repository = Ospack_package.Repository
module Package = Ospack_package.Package
module Fsmodel = Ospack_buildsim.Fsmodel
module Builder = Ospack_buildsim.Builder
module Layout = Ospack_layout.Layout
module Policy = Ospack_config.Policy
module Config = Ospack_config.Config
module Binary = Ospack_buildsim.Binary
module Obs = Ospack_obs.Obs

module SSet = Set.Make (String)

type stats = {
  mutable st_built : int;
  mutable st_reused : int;
  mutable st_cache_hits : int;
  mutable st_cache_misses : int;
  mutable st_staging_failures : int;
  mutable st_externals : int;
}

type t = {
  vfs : Vfs.t;
  fs : Fsmodel.t;
  scheme : Layout.scheme;
  install_root : string;
  stage_root : string;
  use_wrappers : bool;
  config : Config.t;
  cache : Buildcache.t option;
  mirror : Ospack_buildsim.Mirror.t option;
  repo : Repository.t;
  compilers : Ospack_config.Compilers.t;
  db : Database.t;
  obs : Obs.t;
  st : stats;
  mutable total_seconds : float;
  mutable dirty : SSet.t;
      (** hashes of records changed since the last successful
          [save_index] — the only files a save writes or removes *)
  mutable index_bytes : int;
      (** cumulative bytes of index persistence (record files) *)
}

type outcome = {
  o_record : Database.record;
  o_reused : bool;
  o_cached : bool;
  o_cache_miss : bool;
}

let create ?(fs = Fsmodel.tmpfs) ?(scheme = Layout.Spack_default)
    ?(install_root = "/ospack/opt") ?(stage_root = "/ospack/stage")
    ?(use_wrappers = true) ?(config = Config.empty) ?cache ?mirror
    ?(obs = Obs.disabled) ~vfs ~repo ~compilers () =
  {
    vfs;
    fs;
    scheme;
    install_root;
    stage_root;
    use_wrappers;
    config;
    cache;
    mirror;
    repo;
    compilers;
    db = Database.create ();
    obs;
    st =
      {
        st_built = 0;
        st_reused = 0;
        st_cache_hits = 0;
        st_cache_misses = 0;
        st_staging_failures = 0;
        st_externals = 0;
      };
    total_seconds = 0.0;
    dirty = SSet.empty;
    index_bytes = 0;
  }

let stats t =
  (* snapshot, so callers cannot perturb the accounting *)
  {
    st_built = t.st.st_built;
    st_reused = t.st.st_reused;
    st_cache_hits = t.st.st_cache_hits;
    st_cache_misses = t.st.st_cache_misses;
    st_staging_failures = t.st.st_staging_failures;
    st_externals = t.st.st_externals;
  }

(* ------------------------------------------------------------------ *)
(* The sharded on-disk index.

   The database persists as one file per record at
   [.spack-db/index/<2-hex>/<hash>.json] ({!Sharded_dir}), each written
   via write-then-rename; the directory listing is the record set. The
   installer tracks which records changed ([dirty]), so a node attempt
   writes only its own file — write cost proportional to the change, not
   the store. A crash between a node's first durable write and its index
   entry is covered by a pending marker ([.spack-db/pending/<hash>],
   written before the prefix is touched and removed after the record
   file is durable): recovery at [load_index] deletes any prefix whose
   marker survived without an index entry, restoring the invariant that
   the store on disk is always a prefix of the completed store with no
   unindexed orphans. *)

module Json = Ospack_json.Json

let ( let* ) = Result.bind

type store_error =
  | Store_io of { se_action : string; se_path : string; se_cause : Vfs.error }
  | Store_corrupt of { se_path : string; se_reason : string }

let store_error_to_string = function
  | Store_io { se_action; se_path; se_cause } ->
      Printf.sprintf "db index: %s %s: %s" se_action se_path
        (Vfs.error_to_string se_cause)
  | Store_corrupt { se_path; se_reason } ->
      Printf.sprintf "db index: %s: %s" se_path se_reason

let db_root t = t.install_root ^ "/.spack-db"
let index_dir t = db_root t ^ "/index"
let record_path t hash = Sharded_dir.path ~root:(index_dir t) hash
let pending_dir t = db_root t ^ "/pending"
let pending_path t hash = pending_dir t ^ "/" ^ hash

let record_format = 3

let mark_dirty t hash = t.dirty <- SSet.add hash t.dirty

let add_record t record =
  Database.add t.db record;
  mark_dirty t record.Database.r_hash

let index_bytes_written t = t.index_bytes

let record_content record =
  Json.to_string
    (Json.Obj
       [
         ("format", Json.Int record_format);
         ("record", Database.record_to_json record);
       ])
  ^ "\n"

let save_index t =
  let root = index_dir t in
  let persist hash =
    match Database.find_by_hash t.db hash with
    | Some r -> (
        let content = record_content r in
        match Sharded_dir.write t.vfs ~root hash content with
        | Error (se_action, se_path, se_cause) ->
            Error (Store_io { se_action; se_path; se_cause })
        | Ok () ->
            t.index_bytes <- t.index_bytes + String.length content;
            Ok ())
    | None ->
        Result.map_error
          (fun se_cause ->
            Store_io
              { se_action = "remove"; se_path = record_path t hash; se_cause })
          (Sharded_dir.remove t.vfs ~root hash)
  in
  SSet.fold
    (fun hash acc ->
      let* () = acc in
      let* () = persist hash in
      t.dirty <- SSet.remove hash t.dirty;
      Ok ())
    t.dirty (Ok ())

let parse_record ~path content =
  let corrupt se_reason = Error (Store_corrupt { se_path = path; se_reason }) in
  match Json.of_string content with
  | Error e -> corrupt e
  | Ok j -> (
      (* one on-disk format: anything but [record_format] is refused *)
      let format = Option.bind (Json.member "format" j) Json.get_int in
      match (format, Json.member "record" j) with
      | None, _ -> corrupt "missing format"
      | Some f, _ when f <> record_format ->
          corrupt (Printf.sprintf "unsupported format %d" f)
      | Some _, Some item -> (
          match Database.record_of_json item with
          | Ok r -> Ok r
          | Error e -> corrupt e)
      | Some _, None -> corrupt "missing record")

(* remove any prefix whose pending marker survived a crash without an
   index entry — the partially materialized node of a killed install *)
let recover_pending t =
  match Vfs.ls t.vfs (pending_dir t) with
  | Error _ -> 0
  | Ok names ->
      List.fold_left
        (fun recovered hash ->
          let marker = pending_path t hash in
          let orphan =
            match Database.find_by_hash t.db hash with
            | Some _ -> false (* indexed: the marker is a stale leftover *)
            | None -> (
                match Vfs.read_file t.vfs marker with
                | Error _ -> false
                | Ok content ->
                    let prefix = String.trim content in
                    if prefix = "" then false
                    else (
                      (match Vfs.remove t.vfs ~recursive:true prefix with
                      | Ok () | Error _ -> ());
                      true))
          in
          (match Vfs.remove t.vfs marker with Ok () | Error _ -> ());
          if orphan then recovered + 1 else recovered)
        0 names

let load_index_typed t =
  let before = Database.count t.db in
  (* 1. read every record file (listing sweeps stray [.tmp] files), and
     merge only once all of them parsed *)
  let* records =
    List.fold_left
      (fun acc hash ->
        let* acc = acc in
        let path = record_path t hash in
        match Vfs.read_file t.vfs path with
        | Error e ->
            Error (Store_io { se_action = "read"; se_path = path; se_cause = e })
        | Ok content ->
            let* r = parse_record ~path content in
            Ok (r :: acc))
      (Ok [])
      (Sharded_dir.keys t.vfs ~root:(index_dir t))
  in
  List.iter (Database.add t.db) records;
  (* 2. crash recovery: clear orphaned pending prefixes *)
  let recovered = recover_pending t in
  if recovered > 0 then Obs.count t.obs "db.recovered_orphans" recovered;
  Ok (Database.count t.db - before)

let load_index t =
  Result.map_error store_error_to_string (load_index_typed t)

let database t = t.db
let vfs t = t.vfs
let install_root t = t.install_root

let prefix_of t spec name =
  Layout.node_path t.scheme ~root:t.install_root spec name

(* Typed per-node errors: the builder's own error type for build
   failures, a rendered message for everything else (cache extraction,
   missing package definitions, vendor-prefix and provenance writes).
   The scheduler aggregates these into a multi-failure report. *)
type node_error =
  | Build_failure of Builder.error
  | Install_failure of string

let node_error_to_string = function
  | Build_failure e -> Builder.error_to_string e
  | Install_failure msg -> msg

(* Populate a vendor prefix with minimal self-contained artifacts so that
   dependents' RPATH resolution works against it. Idempotent. *)
let ensure_external_artifacts t name prefix =
  let lib = Builder.installed_library ~prefix ~package:name in
  if Vfs.is_file t.vfs lib then Ok ()
  else
    let write path content =
      Result.map_error
        (fun e ->
          Install_failure
            (Printf.sprintf "external prefix %s: %s" name
               (Vfs.error_to_string e)))
        (Vfs.write_file t.vfs path content)
    in
    let* () =
      write lib
        (Binary.serialize
           (Binary.make ~kind:Binary.Lib
              ~soname:(Binary.soname_for_package name)
              ~needed:[] ~rpaths:[]))
    in
    let* () =
      write
        (Builder.installed_executable ~prefix ~package:name)
        (Binary.serialize
           (Binary.make ~kind:Binary.Exe ~soname:name
              ~needed:[ Binary.soname_for_package name ]
              ~rpaths:[ prefix ^ "/lib" ]))
    in
    write (prefix ^ "/include/" ^ name ^ ".h") ("/* vendor " ^ name ^ " */")

let external_record t sub name ~explicit =
  match Policy.external_for t.config ~package:name with
  | Some (ext_spec, prefix) when Concrete.satisfies sub ext_spec ->
      let* () = ensure_external_artifacts t name prefix in
      Ok
        (Some
           {
             Database.r_spec = sub;
             r_hash = Concrete.root_hash sub;
             r_prefix = prefix;
             r_explicit = explicit;
             r_external = true;
             r_build_seconds = 0.0;
           })
  | _ -> Ok None

(* The pending-marker intent log: written (one atomic file) before a
   node's prefix is touched, removed only after the node's record file
   is durable. The marker body is the prefix path, so recovery can delete a
   partially materialized prefix without recomputing the layout. *)
let write_pending t ~hash ~prefix =
  Result.map_error
    (fun e ->
      Install_failure
        (Printf.sprintf "pending marker %s: %s" hash (Vfs.error_to_string e)))
    (Vfs.write_file t.vfs (pending_path t hash) (prefix ^ "\n"))

let clear_pending t ~hash =
  match Vfs.remove t.vfs (pending_path t hash) with
  | Ok () | Error _ -> ()

(* a failed attempt never leaves its partial prefix behind (under a
   crash plan these removals fail too — recovery handles it on reload) *)
let discard_partial t ~hash ~prefix =
  (match Vfs.remove t.vfs ~recursive:true prefix with
  | Ok () | Error _ -> ());
  clear_pending t ~hash

let install_node t spec name ~explicit =
  let sub = Concrete.subspec spec name in
  let hash = Concrete.root_hash sub in
  Obs.span t.obs ~cat:"install"
    ~args:[ ("node", name); ("hash", hash) ]
    ("install " ^ name)
  @@ fun () ->
  match Database.find_by_hash t.db hash with
  | Some record ->
      t.st.st_reused <- t.st.st_reused + 1;
      Obs.count t.obs "install.reused" 1;
      if explicit && not record.Database.r_explicit then
        add_record t { record with Database.r_explicit = true };
      Ok
        {
          o_record =
            { record with
              Database.r_explicit = explicit || record.Database.r_explicit };
          o_reused = true;
          o_cached = false;
          o_cache_miss = false;
        }
  | None ->
  match external_record t sub name ~explicit with
  | Error e -> Error e
  | Ok (Some record) ->
      t.st.st_externals <- t.st.st_externals + 1;
      Obs.count t.obs "install.externals" 1;
      add_record t record;
      Ok
        {
          o_record = record;
          o_reused = false;
          o_cached = false;
          o_cache_miss = false;
        }
  | Ok None ->
  (* binary cache: extract instead of building, relocating prefixes *)
  match t.cache with
  | Some cache when Buildcache.has cache ~hash -> (
      t.st.st_cache_hits <- t.st.st_cache_hits + 1;
      Obs.count t.obs "buildcache.hits" 1;
      let prefix = prefix_of t spec name in
      let* () = write_pending t ~hash ~prefix in
      match
        Buildcache.extract cache ~spec:sub ~install_root:t.install_root
          ~prefix
      with
      | Error e ->
          discard_partial t ~hash ~prefix;
          Error
            (Install_failure
               (Printf.sprintf "buildcache %s: %s" name
                  (Buildcache.error_to_string e)))
      | Ok payload -> (
          (* relocation rewrote file contents: manifest the bytes the
             extractor just wrote, without walking the prefix again *)
          match Provenance.write_manifest t.vfs ~prefix payload with
          | Error e ->
              discard_partial t ~hash ~prefix;
              Error
                (Install_failure
                   (Printf.sprintf "provenance %s: %s" name
                      (Vfs.error_to_string e)))
          | Ok () ->
              let record =
                {
                  Database.r_spec = sub;
                  r_hash = hash;
                  r_prefix = prefix;
                  r_explicit = explicit;
                  r_external = false;
                  r_build_seconds = 0.0;
                }
              in
              add_record t record;
              Ok
                {
                  o_record = record;
                  o_reused = false;
                  o_cached = true;
                  o_cache_miss = false;
                }))
  | _ ->
      (* a configured cache that lacks this hash is a miss we account *)
      let cache_miss = Option.is_some t.cache in
      if cache_miss then begin
        t.st.st_cache_misses <- t.st.st_cache_misses + 1;
        Obs.count t.obs "buildcache.misses" 1
      end;
      let* pkg =
        match Repository.find t.repo name with
        | Some p -> Ok p
        | None ->
            Error
              (Install_failure
                 (Printf.sprintf "no package definition for %s" name))
      in
      let prefix = prefix_of t spec name in
      let dep_prefix dep =
        let dep_hash = Concrete.dag_hash sub dep in
        Option.map
          (fun r -> r.Database.r_prefix)
          (Database.find_by_hash t.db dep_hash)
      in
      let* () = write_pending t ~hash ~prefix in
      let* result =
        Result.map_error
          (fun e ->
            (match e with
            | Builder.Staging _ ->
                t.st.st_staging_failures <- t.st.st_staging_failures + 1;
                Obs.count t.obs "install.staging_failures" 1
            | Builder.Missing_dep _ | Builder.Step_failed _ -> ());
            discard_partial t ~hash ~prefix;
            Build_failure e)
          (Builder.build ~obs:t.obs ~vfs:t.vfs ~fs:t.fs
             ~compilers:t.compilers ~use_wrappers:t.use_wrappers
             ~mirror:t.mirror ~stage_root:t.stage_root ~spec:sub ~node:name
             ~pkg ~prefix ~dep_prefix ())
      in
      let* () =
        Result.map_error
          (fun e ->
            discard_partial t ~hash ~prefix;
            Install_failure
              (Printf.sprintf "provenance %s: %s" name (Vfs.error_to_string e)))
          (let* () =
             Provenance.write t.vfs ~prefix ~spec:sub
               ~package_source:pkg.Package.p_source ~log:result.Builder.br_log
           in
           (* the builder hands over what it wrote: manifest those
              bytes without walking the prefix and reading them back *)
           Provenance.write_manifest t.vfs ~prefix
             (List.filter_map
                (fun (rel, content) ->
                  Provenance.manifest_entry ~rel Vfs.File (fun () ->
                      Some content))
                result.Builder.br_payload))
      in
      let record =
        {
          Database.r_spec = sub;
          r_hash = hash;
          r_prefix = prefix;
          r_explicit = explicit;
          r_external = false;
          r_build_seconds = result.Builder.br_time;
        }
      in
      add_record t record;
      t.st.st_built <- t.st.st_built + 1;
      Obs.count t.obs "install.built" 1;
      Obs.observe t.obs "build.node_seconds" result.Builder.br_time;
      t.total_seconds <- t.total_seconds +. result.Builder.br_time;
      Ok
        {
          o_record = record;
          o_reused = false;
          o_cached = false;
          o_cache_miss = cache_miss;
        }

(* ------------------------------------------------------------------ *)
(* Deterministic parallel installation: a virtual-time worker-pool
   simulation. [jobs] simulated workers pull ready DAG nodes (all
   dependencies done) off a priority queue ordered by first-occurrence
   topological index, so the schedule — and therefore the trace — is a
   pure function of the input DAGs and [jobs]. Builds still execute
   sequentially in this process (the build simulator charges virtual
   seconds, not wall time); the scheduler overlaps those virtual
   durations across workers to compute the makespan a real [-j N]
   install would achieve. A failed node poisons only its transitive
   dependents; independent subtrees keep building, and every completed
   node is persisted to the on-disk index immediately. *)

type failure =
  | Failed of { f_node : string; f_hash : string; f_error : node_error }
  | Poisoned of {
      p_node : string;
      p_hash : string;
      p_failed_deps : string list;
    }

type slot = {
  sl_node : string;
  sl_hash : string;
  sl_worker : int;
  sl_start : float;
  sl_finish : float;
}

type parallel_report = {
  pr_jobs : int;
  pr_outcomes : outcome list;
  pr_failures : failure list;
  pr_schedule : slot list;
  pr_makespan : float;
  pr_serial_seconds : float;
}

let failure_to_string = function
  | Failed { f_node; f_error; _ } ->
      Printf.sprintf "%s: %s" f_node (node_error_to_string f_error)
  | Poisoned { p_node; p_failed_deps; _ } ->
      Printf.sprintf "%s: not built (failed dependencies: %s)" p_node
        (String.concat ", " p_failed_deps)

let failures_to_string = function
  | [] -> "no failures"
  | fs ->
      let failed =
        List.length
          (List.filter (function Failed _ -> true | Poisoned _ -> false) fs)
      in
      let poisoned = List.length fs - failed in
      let header =
        if poisoned = 0 then Printf.sprintf "%d node(s) failed" failed
        else
          Printf.sprintf
            "%d node(s) failed (%d more not built because a dependency failed)"
            failed poisoned
      in
      header ^ ":\n"
      ^ String.concat "\n" (List.map (fun f -> "  " ^ failure_to_string f) fs)

let parallel_speedup r =
  if r.pr_makespan > 0.0 then r.pr_serial_seconds /. r.pr_makespan else 1.0

let parallel_summary_to_string r =
  Printf.sprintf "makespan %.1f s vs %.1f s serialized (%.2fx at -j%d)"
    r.pr_makespan r.pr_serial_seconds (parallel_speedup r) r.pr_jobs

let profile_input ~specs (r : parallel_report) =
  let module P = Ospack_obs.Profile in
  (* node costs come from the recorded schedule: a node absent from it
     (reused, external, or never dispatched) charged nothing *)
  let slot_cost = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace slot_cost s.sl_hash (s.sl_finish -. s.sl_start))
    r.pr_schedule;
  (* merge the spec DAGs by sub-DAG hash in first-occurrence order,
     exactly as install_parallel builds its node table *)
  let seen = Hashtbl.create 64 in
  let rev_nodes = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun name ->
          let hash = Concrete.dag_hash spec name in
          if not (Hashtbl.mem seen hash) then begin
            Hashtbl.add seen hash ();
            let deps =
              List.map
                (fun dep -> Concrete.dag_hash spec dep)
                (Concrete.node_exn spec name).Concrete.deps
            in
            let cost =
              match Hashtbl.find_opt slot_cost hash with
              | Some c -> c
              | None -> 0.0
            in
            rev_nodes :=
              { P.nd_id = hash; nd_label = name; nd_cost = cost; nd_deps = deps }
              :: !rev_nodes
          end)
        (Concrete.topological_order spec))
    specs;
  {
    P.in_jobs = r.pr_jobs;
    in_nodes = List.rev !rev_nodes;
    in_slots =
      List.map
        (fun s ->
          {
            P.st_id = s.sl_hash;
            st_worker = s.sl_worker;
            st_start = s.sl_start;
            st_finish = s.sl_finish;
          })
        r.pr_schedule;
  }

(* one merged scheduling node; specs sharing a sub-DAG hash share it *)
type pnode = {
  pn_name : string;
  pn_hash : string;
  pn_spec : Concrete.t;  (** the spec this node is installed from *)
  mutable pn_explicit : bool;
  pn_deps : int list;  (** indices into the node table *)
}

module ISet = Set.Make (Int)

let install_parallel t ?(explicit = true) ~jobs specs =
  if jobs < 1 then
    Error (Printf.sprintf "install: jobs must be >= 1 (got %d)" jobs)
  else begin
    (* merge the spec DAGs into one table keyed by sub-DAG hash, holding
       each node with its index; the first occurrence fixes the node's
       deterministic dispatch priority *)
    let index_of = Hashtbl.create 64 in
    let rev_infos = ref [] in
    List.iter
      (fun spec ->
        let root = Concrete.root spec in
        List.iter
          (fun name ->
            let hash = Concrete.dag_hash spec name in
            let is_explicit = explicit && name = root in
            match Hashtbl.find_opt index_of hash with
            | Some (_, nd) -> if is_explicit then nd.pn_explicit <- true
            | None ->
                let deps =
                  List.map
                    (fun dep ->
                      fst (Hashtbl.find index_of (Concrete.dag_hash spec dep)))
                    (Concrete.node_exn spec name).Concrete.deps
                in
                let nd =
                  {
                    pn_name = name;
                    pn_hash = hash;
                    pn_spec = spec;
                    pn_explicit = is_explicit;
                    pn_deps = deps;
                  }
                in
                Hashtbl.add index_of hash (Hashtbl.length index_of, nd);
                rev_infos := nd :: !rev_infos)
          (Concrete.topological_order spec))
      specs;
    let nodes = Array.of_list (List.rev !rev_infos) in
    let n = Array.length nodes in
    let dependents = Array.make (max n 1) [] in
    Array.iteri
      (fun i nd ->
        List.iter (fun d -> dependents.(d) <- i :: dependents.(d)) nd.pn_deps)
      nodes;
    Array.iteri (fun i l -> dependents.(i) <- List.rev l) dependents;
    Obs.span t.obs ~cat:"sched"
      ~args:
        [ ("jobs", string_of_int jobs); ("nodes", string_of_int n) ]
      "schedule"
    @@ fun () ->
    let pending = Array.map (fun nd -> List.length nd.pn_deps) nodes in
    (* W(aiting) R(eady) B(uilding) D(one) F(ailed) P(oisoned) *)
    let state = Array.make (max n 1) 'W' in
    let poison_cause = Array.make (max n 1) [] in
    let ready = ref ISet.empty in
    Array.iteri
      (fun i p ->
        if p = 0 then begin
          state.(i) <- 'R';
          ready := ISet.add i !ready
        end)
      pending;
    let worker_free = Array.make jobs 0.0 in
    let persist_error = ref None in
    let running = ref [] (* (finish, idx, worker, outcome), ascending *) in
    let now = ref 0.0 in
    let rev_outcomes = ref [] in
    let rev_slots = ref [] in
    let rev_failed = ref [] in
    let serial = ref 0.0 in
    let makespan = ref 0.0 in
    let poison idx =
      (* BFS over dependents: everything downstream of a failed node is
         skipped, charged to this failure *)
      let failed_name = nodes.(idx).pn_name in
      let rec go = function
        | [] -> ()
        | i :: rest ->
            let next =
              List.filter
                (fun d ->
                  match state.(d) with
                  | 'W' | 'P' ->
                      if not (List.mem failed_name poison_cause.(d)) then begin
                        state.(d) <- 'P';
                        poison_cause.(d) <-
                          failed_name :: poison_cause.(d);
                        true
                      end
                      else false
                  | _ -> false)
                dependents.(i)
            in
            go (rest @ next)
      in
      go [ idx ]
    in
    let pick_worker busy =
      let best = ref (-1) in
      for i = 0 to jobs - 1 do
        if not (ISet.mem i busy) then
          match !best with
          | -1 -> best := i
          | b -> if worker_free.(i) < worker_free.(b) then best := i
      done;
      !best
    in
    let dispatch () =
      let idx = ISet.min_elt !ready in
      ready := ISet.remove idx !ready;
      let nd = nodes.(idx) in
      let busy =
        List.fold_left (fun s (_, _, w, _) -> ISet.add w s) ISet.empty !running
      in
      let w = pick_worker busy in
      let start = !now in
      Obs.observe t.obs "sched.idle_seconds" (start -. worker_free.(w));
      Obs.observe t.obs "sched.ready_queue"
        (float_of_int (ISet.cardinal !ready + 1));
      Obs.count t.obs "sched.dispatches" 1;
      let result =
        Obs.span t.obs ~cat:"sched"
          ~args:
            [
              ("node", nd.pn_name);
              ("vstart", Printf.sprintf "%.6f" start);
            ]
          (Printf.sprintf "worker %d" w)
        @@ fun () -> install_node t nd.pn_spec nd.pn_name ~explicit:nd.pn_explicit
      in
      (* crash consistency: persist after every node, success or not; a
         failing persist is catastrophic — the scheduler stops, like the
         process it simulates *)
      (match save_index t with
      | Ok () -> clear_pending t ~hash:nd.pn_hash
      | Error se -> if !persist_error = None then persist_error := Some se);
      match result with
      | Ok o ->
          (* a reused record carries its historical build time; replaying
             it costs nothing on this install's clock *)
          let dur =
            if o.o_reused then 0.0 else o.o_record.Database.r_build_seconds
          in
          serial := !serial +. dur;
          let finish = start +. dur in
          state.(idx) <- 'B';
          worker_free.(w) <- finish;
          rev_slots :=
            {
              sl_node = nd.pn_name;
              sl_hash = nd.pn_hash;
              sl_worker = w;
              sl_start = start;
              sl_finish = finish;
            }
            :: !rev_slots;
          let entry = (finish, idx, w, o) in
          running :=
            List.merge
              (fun (f1, i1, _, _) (f2, i2, _, _) -> compare (f1, i1) (f2, i2))
              [ entry ] !running
      | Error e ->
          state.(idx) <- 'F';
          worker_free.(w) <- start;
          makespan := max !makespan start;
          Obs.count t.obs "sched.failures" 1;
          rev_failed :=
            Failed { f_node = nd.pn_name; f_hash = nd.pn_hash; f_error = e }
            :: !rev_failed;
          poison idx
    in
    (* the earliest-finishing running node completes; the caller has
       taken it off [running] *)
    let complete (finish, idx, w, o) =
      now := finish;
      worker_free.(w) <- finish;
      makespan := max !makespan finish;
      state.(idx) <- 'D';
      rev_outcomes := o :: !rev_outcomes;
      List.iter
        (fun d ->
          if state.(d) = 'W' then begin
            pending.(d) <- pending.(d) - 1;
            if pending.(d) = 0 then begin
              state.(d) <- 'R';
              ready := ISet.add d !ready
            end
          end)
        dependents.(idx)
    in
    let rec loop () =
      if !persist_error <> None then ()
      else if (not (ISet.is_empty !ready)) && List.length !running < jobs
      then begin
        dispatch ();
        loop ()
      end
      else
        match !running with
        | [] -> ()
        | first :: rest ->
            running := rest;
            complete first;
            loop ()
    in
    loop ();
    match !persist_error with
    | Some se -> Error (store_error_to_string se)
    | None ->
    let poisoned = ref [] in
    for i = n - 1 downto 0 do
      if state.(i) = 'P' then
        poisoned :=
          Poisoned
            {
              p_node = nodes.(i).pn_name;
              p_hash = nodes.(i).pn_hash;
              p_failed_deps = List.sort String.compare poison_cause.(i);
            }
          :: !poisoned
    done;
    Ok
      {
        pr_jobs = jobs;
        pr_outcomes = List.rev !rev_outcomes;
        pr_failures = List.rev !rev_failed @ !poisoned;
        pr_schedule = List.rev !rev_slots;
        pr_makespan = !makespan;
        pr_serial_seconds = !serial;
      }
  end

let install t ?explicit spec =
  let* r = install_parallel t ?explicit ~jobs:1 [ spec ] in
  match r.pr_failures with
  | [] -> Ok r.pr_outcomes
  | failures -> Error (failures_to_string failures)

type summary = {
  s_built : int;
  s_reused : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_externals : int;
}

let summary_of_outcomes outcomes =
  List.fold_left
    (fun s o ->
      let s =
        if o.o_reused then { s with s_reused = s.s_reused + 1 }
        else if o.o_cached then { s with s_cache_hits = s.s_cache_hits + 1 }
        else if o.o_record.Database.r_external then
          { s with s_externals = s.s_externals + 1 }
        else { s with s_built = s.s_built + 1 }
      in
      if o.o_cache_miss then { s with s_cache_misses = s.s_cache_misses + 1 }
      else s)
    {
      s_built = 0;
      s_reused = 0;
      s_cache_hits = 0;
      s_cache_misses = 0;
      s_externals = 0;
    }
    outcomes

let summary_to_string s =
  let optional n what = if n = 0 then "" else Printf.sprintf ", %d %s" n what in
  Printf.sprintf "%d built, %d reused%s%s%s" s.s_built s.s_reused
    (optional s.s_cache_hits "from cache")
    (optional s.s_cache_misses "cache misses")
    (optional s.s_externals "external")

let uninstall t ~hash =
  let* record = Database.remove t.db hash in
  mark_dirty t hash;
  (* vendor prefixes are not ours to delete *)
  let* () =
    if record.Database.r_external then Ok ()
    else
      match Vfs.remove t.vfs ~recursive:true record.Database.r_prefix with
      | Ok () | Error (Vfs.Not_found _) -> Ok ()
      | Error e -> Error ("uninstall: " ^ Vfs.error_to_string e)
  in
  let* () = Result.map_error store_error_to_string (save_index t) in
  Ok record

let total_build_seconds t = t.total_seconds

let push_to_cache t cache =
  let rec go pushed = function
    | [] -> Ok pushed
    | (r : Database.record) :: rest ->
        if r.Database.r_external then go pushed rest
        else (
          match Buildcache.save cache ~install_root:t.install_root r with
          | Ok () -> go (pushed + 1) rest
          | Error e -> Error (Buildcache.error_to_string e))
  in
  go 0 (Database.all t.db)

(* ------------------------------------------------------------------ *)
(* Splicing (spack splice): substitute one dependency's installed
   prefix into a cached binary without rebuilding.

   The spliced DAG comes from {!Buildcache.splice_spec} (the replacement
   sub-DAG overrides the original's same-named nodes, every node above it
   recomputes its hash). The cached entry then re-extracts into the new
   root prefix with its RPATHs rewired: the replaced subtree's prefixes
   swap to the replacement's installed prefixes, everything else keeps
   pointing at the (still installed) original chain. Intermediate nodes
   whose hash changed only because a transitive dependency did are not
   rebuilt — they register alias records mapping the new hash onto the
   old prefix, so the spliced DAG stays fully resolvable in the database.
   The whole operation is bracketed by a pending marker and accepted only
   when {!Ospack_buildsim.Loader.verify_prefix} proves every simulated
   ELF object in the new prefix resolves with an empty environment — the
   paper's §3.5 relocation invariant doing new work. *)

type splice_result = {
  sp_record : Database.record;  (** the newly registered spliced install *)
  sp_old_hash : string;
  sp_new_hash : string;
  sp_replaced : string;  (** the dependency package that was swapped *)
  sp_rewired : int;  (** binaries whose RPATHs were rewritten *)
  sp_resolved : int;  (** binaries the loader re-verified, empty env *)
}

let splice t ~hash ~replacement =
  let module Loader = Ospack_buildsim.Loader in
  let module Env = Ospack_buildsim.Env in
  Obs.span t.obs ~cat:"splice" ~args:[ ("hash", hash) ] "splice"
  @@ fun () ->
  match t.cache with
  | None -> Error "splice: no build cache configured"
  | Some cache ->
      let* orig =
        Result.map_error Buildcache.error_to_string
          (Buildcache.entry_spec cache ~hash)
      in
      let* spliced, replaced = Buildcache.splice_spec ~orig ~replacement in
      let root_name = Concrete.root orig in
      let new_hash = Concrete.root_hash spliced in
      let* () =
        if Database.find_by_hash t.db new_hash <> None then
          Error
            (Printf.sprintf "splice: %s/%s is already installed" root_name
               new_hash)
        else Ok ()
      in
      let old_prefix name =
        match Database.find_by_hash t.db (Concrete.dag_hash orig name) with
        | Some r -> r.Database.r_prefix
        | None -> prefix_of t orig name
      in
      let in_orig name = Concrete.node orig name <> None in
      let in_replacement name = Concrete.node replacement name <> None in
      let hash_changed name =
        (not (in_orig name))
        || Concrete.dag_hash orig name <> Concrete.dag_hash spliced name
      in
      (* prefix rewiring pairs: every replaced-subtree node whose hash
         changed must already be installed — splicing substitutes
         prefixes, it never builds *)
      let* dep_pairs =
        List.fold_left
          (fun acc n ->
            let* acc = acc in
            let name = n.Concrete.name in
            if not (in_replacement name && hash_changed name) then Ok acc
            else
              let new_h = Concrete.dag_hash spliced name in
              match Database.find_by_hash t.db new_h with
              | None ->
                  Error
                    (Printf.sprintf
                       "splice: replacement dependency %s/%s is not \
                        installed (install it first)"
                       name new_h)
              | Some r ->
                  if in_orig name then
                    Ok ((old_prefix name, r.Database.r_prefix) :: acc)
                  else Ok acc)
          (Ok []) (Concrete.nodes spliced)
      in
      let new_prefix = prefix_of t spliced root_name in
      let prefix_map = (old_prefix root_name, new_prefix) :: dep_pairs in
      let* () =
        Result.map_error node_error_to_string
          (write_pending t ~hash:new_hash ~prefix:new_prefix)
      in
      let fail_with e =
        discard_partial t ~hash:new_hash ~prefix:new_prefix;
        Error e
      in
      match
        Buildcache.splice cache ~hash ~install_root:t.install_root
          ~prefix:new_prefix ~prefix_map
      with
      | Error e -> fail_with (Buildcache.error_to_string e)
      | Ok (rewired, payload) -> (
          (* relocation rewrote file contents: manifest the bytes the
             splice just wrote, without walking the prefix again *)
          match Provenance.write_manifest t.vfs ~prefix:new_prefix payload with
          | Error e ->
              fail_with
                (Printf.sprintf "provenance %s: %s" root_name
                   (Vfs.error_to_string e))
          | Ok () -> (
              (* acceptance gate before anything is registered: the new
                 prefix must fully resolve with no environment help *)
              match
                Loader.verify_prefix ~obs:t.obs t.vfs ~prefix:new_prefix
                  ~env:Env.empty
              with
              | Error (path, f) ->
                  fail_with
                    (Printf.sprintf "splice: %s: %s" path
                       (Loader.failure_to_string f))
              | Ok resolved ->
                  (* alias records: intermediate nodes rehashed only
                     because a transitive dependency changed keep their
                     existing prefixes under the new hash *)
                  List.iter
                    (fun n ->
                      let name = n.Concrete.name in
                      if
                        name <> root_name
                        && (not (in_replacement name))
                        && in_orig name && hash_changed name
                        && Database.find_by_hash t.db
                             (Concrete.dag_hash spliced name)
                           = None
                      then
                        let external_ =
                          match
                            Database.find_by_hash t.db
                              (Concrete.dag_hash orig name)
                          with
                          | Some r -> r.Database.r_external
                          | None -> false
                        in
                        add_record t
                          {
                            Database.r_spec = Concrete.subspec spliced name;
                            r_hash = Concrete.dag_hash spliced name;
                            r_prefix = old_prefix name;
                            r_explicit = false;
                            r_external = external_;
                            r_build_seconds = 0.0;
                          })
                    (Concrete.nodes spliced);
                  let record =
                    {
                      Database.r_spec = spliced;
                      r_hash = new_hash;
                      r_prefix = new_prefix;
                      r_explicit = true;
                      r_external = false;
                      r_build_seconds = 0.0;
                    }
                  in
                  add_record t record;
                  let* () =
                    Result.map_error store_error_to_string (save_index t)
                  in
                  clear_pending t ~hash:new_hash;
                  Obs.count t.obs "splice.count" 1;
                  Obs.count t.obs "splice.rewired" rewired;
                  Ok
                    {
                      sp_record = record;
                      sp_old_hash = hash;
                      sp_new_hash = new_hash;
                      sp_replaced = replaced;
                      sp_rewired = rewired;
                      sp_resolved = resolved;
                    }))
