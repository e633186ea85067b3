module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json
module Ast = Ospack_spec.Ast
module Parser = Ospack_spec.Parser
module Printer = Ospack_spec.Printer
module Concrete = Ospack_spec.Concrete
module Installer = Ospack_store.Installer
module Database = Ospack_store.Database
module Ccache = Ospack_concretize.Ccache
module Multiroot = Ospack_concretize.Multiroot
module Sha256 = Ospack_hash.Sha256
module Obs = Ospack_obs.Obs

type t = {
  env_name : string;
  env_roots : string list;  (** canonical printed forms, insertion order *)
  env_view : string option;
}

let envs_root = "/ospack/envs"

let manifest_path name = Printf.sprintf "%s/%s/env.json" envs_root name
let lock_path name = Printf.sprintf "%s/%s/lock.json" envs_root name

let lock_format = 3

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       name

let ( let* ) = Result.bind

(* Every durable file an environment owns goes through the same
   write-then-rename protocol as the store index and the ccache: a crash
   at any barrier leaves the previous file intact (the torture sweep
   below kills each one). *)
let write_atomic vfs path content =
  Result.map_error
    (fun (_, _, e) -> Vfs.error_to_string e)
    (Vfs.write_atomic vfs path content)

let persist (ctx : Context.t) t =
  let manifest =
    Json.Obj
      [
        ("name", Json.String t.env_name);
        ("roots", Json.List (List.map (fun r -> Json.String r) t.env_roots));
        ( "view",
          match t.env_view with
          | Some v -> Json.String v
          | None -> Json.Null );
      ]
  in
  let* () =
    write_atomic ctx.Context.vfs
      (manifest_path t.env_name)
      (Json.to_string ~indent:2 manifest ^ "\n")
  in
  Ok t

let create (ctx : Context.t) ~name ?view () =
  if not (valid_name name) then
    Error (Printf.sprintf "invalid environment name %S" name)
  else if Vfs.exists ctx.Context.vfs (manifest_path name) then
    Error (Printf.sprintf "environment %s already exists" name)
  else persist ctx { env_name = name; env_roots = []; env_view = view }

(* Roots are held canonically — the parsed AST's printed form — so
   [mpileaks@1.0] and [mpileaks @1.0] are one root, not two, and the
   manifest is insensitive to the user's whitespace. [add] stores that
   form and [load] re-derives it, so every other operation compares
   roots as plain strings. *)
let canonical spec =
  Result.map Printer.to_string (Parser.parse spec)

let load (ctx : Context.t) ~name =
  match Vfs.read_file ctx.Context.vfs (manifest_path name) with
  | Error _ -> Error (Printf.sprintf "no environment named %s" name)
  | Ok content -> (
      let* j =
        Result.map_error (fun e -> "env manifest: " ^ e) (Json.of_string content)
      in
      let* roots =
        match Option.bind (Json.member "roots" j) Json.to_list with
        | Some items -> Ok (List.filter_map Json.get_string items)
        | None -> Error "env manifest: missing roots"
      in
      let* roots =
        List.fold_right
          (fun root acc ->
            let* c =
              Result.map_error
                (Printf.sprintf "env manifest: root %S: %s" root)
                (canonical root)
            in
            Result.map (List.cons c) acc)
          roots (Ok [])
      in
      let view = Option.bind (Json.member "view" j) Json.get_string in
      Ok { env_name = name; env_roots = roots; env_view = view })

let list_envs (ctx : Context.t) =
  match Vfs.ls ctx.Context.vfs envs_root with
  | Error _ -> []
  | Ok entries ->
      List.filter
        (fun name -> Vfs.is_file ctx.Context.vfs (manifest_path name))
        entries

let add (ctx : Context.t) t spec =
  let* canon = canonical spec in
  if List.mem canon t.env_roots then
    Error (Printf.sprintf "%s is already a root of %s" canon t.env_name)
  else persist ctx { t with env_roots = t.env_roots @ [ canon ] }

let remove_root (ctx : Context.t) t spec =
  let canon = match canonical spec with Ok c -> c | Error _ -> spec in
  if not (List.mem canon t.env_roots) then
    Error (Printf.sprintf "%s is not a root of %s" canon t.env_name)
  else
    persist ctx
      { t with env_roots = List.filter (fun r -> r <> canon) t.env_roots }

(* ------------------------------------------------------------------ *)
(* Lockfile format 3                                                  *)

type lock_error =
  | Lock_missing
  | Lock_corrupt of string
  | Lock_stale of {
      lock_fp : string;
      current_fp : string;
      reason : string;
    }

let lock_error_to_string = function
  | Lock_missing -> "no lockfile (run env install first)"
  | Lock_corrupt why -> Printf.sprintf "lockfile corrupt: %s" why
  | Lock_stale { lock_fp = ""; current_fp = ""; reason } ->
      Printf.sprintf "lockfile stale: %s — re-run env install to re-solve"
        reason
  | Lock_stale { lock_fp; current_fp; reason } ->
      Printf.sprintf
        "lockfile stale: %s (locked at fingerprint %s.., context is now \
         %s..) — re-run env install to re-solve"
        reason
        (String.sub lock_fp 0 (min 12 (String.length lock_fp)))
        (String.sub current_fp 0 (min 12 (String.length current_fp)))

type lock = {
  lk_fingerprint : (string * string) list;
  lk_roots : string list;
  lk_specs : (string * Concrete.t) list;
}

let current_parts (ctx : Context.t) =
  Ccache.fingerprint_parts (Ccache.context_of ctx.Context.ccache)

(* The file is one compact JSON object, [{"format":3,"checksum":C,
   "payload":P}] and a newline, where C is the SHA-256 of P's bytes
   exactly as written. P starts and ends at fixed offsets, so a read
   checks the bytes before it parses anything, and nothing is rendered
   twice. P holds the context fingerprint per part, the roots as
   [{spec, hash, merkle}], and a [nodes] map from DAG hash to each node
   of every locked DAG, stored once, its dependencies given as hashes. *)
let lock_head = Printf.sprintf "{\"format\":%d,\"checksum\":\"" lock_format
let lock_mid = "\",\"payload\":"
let lock_tail = "}\n"
let checksum_len = 64

let write_lock (ctx : Context.t) t pairs =
  let merkle_of =
    Ccache.entry_fingerprint (Ccache.context_of ctx.Context.ccache)
  in
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun (_, c) ->
      List.iter
        (fun (n : Concrete.node) ->
          let hash = Concrete.dag_hash c n.Concrete.name in
          if not (Hashtbl.mem nodes hash) then
            Hashtbl.add nodes hash
              (Concrete.node_to_json
                 { n with Concrete.deps = List.map (Concrete.dag_hash c) n.deps }))
        (Concrete.nodes c))
    pairs;
  let payload =
    Json.to_string
      (Json.Obj
         [
           ( "fingerprint",
             Json.Obj
               (List.map
                  (fun (part, fp) -> (part, Json.String fp))
                  (current_parts ctx)) );
           ( "roots",
             Json.List
               (List.map
                  (fun (root, c) ->
                    Json.Obj
                      [
                        ("spec", Json.String root);
                        ("hash", Json.String (Concrete.root_hash c));
                        ("merkle", Json.String (merkle_of c));
                      ])
                  pairs) );
           ( "nodes",
             Json.Obj
               (Hashtbl.fold (fun hash j acc -> (hash, j) :: acc) nodes []
               |> List.sort (fun (a, _) (b, _) -> String.compare a b)) );
         ])
  in
  write_atomic ctx.Context.vfs (lock_path t.env_name)
    (String.concat ""
       [ lock_head; Sha256.hex_digest payload; lock_mid; payload; lock_tail ])

(* The payload of a file framed as [write_lock] writes it, once its
   bytes match the checksum; any other file is parsed only to say which
   format it claims. *)
let lock_payload content =
  let n = String.length content in
  let start = String.length lock_head + checksum_len + String.length lock_mid in
  let stop = n - String.length lock_tail in
  if
    stop >= start
    && String.starts_with ~prefix:lock_head content
    && String.sub content (start - String.length lock_mid)
         (String.length lock_mid)
       = lock_mid
    && String.ends_with ~suffix:lock_tail content
  then
    let payload = String.sub content start (stop - start) in
    if
      Sha256.hex_digest payload
      = String.sub content (String.length lock_head) checksum_len
    then Ok payload
    else Error "checksum mismatch (file was edited by hand?)"
  else
    match Json.of_string content with
    | Error e -> Error e
    | Ok j -> (
        match Option.bind (Json.member "format" j) Json.get_int with
        | Some f when f = lock_format ->
            Error "payload is not framed as written (file was reformatted?)"
        | Some f -> Error (Printf.sprintf "unknown format %d" f)
        | None -> Error "missing format")

let get what key access j =
  match Option.bind (Json.member key j) access with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed %s" what key)

let all f items =
  List.fold_right
    (fun item acc ->
      let* xs = acc in
      let* x = f item in
      Ok (x :: xs))
    items (Ok [])

(* Every root's DAG out of the one [nodes] map. Each recorded node hash
   is checked once, by whichever root reaches it first: against the
   node's own identity and its dependencies' hashes, checked before it.
   Each root's closure is then renamed back to node names and built with
   the hashes just checked, so no node of the lock is hashed twice. *)
let dags_of nodes =
  let checked = Hashtbl.create 64 in
  let rec check ~spec hash =
    match Hashtbl.find_opt checked hash with
    | Some true -> Ok ()
    | Some false -> Error (Printf.sprintf "%s: dependency cycle at %s" spec hash)
    | None -> (
        match Hashtbl.find_opt nodes hash with
        | None -> Error (Printf.sprintf "%s: no node %s in the lock" spec hash)
        | Some (n : Concrete.node) ->
            Hashtbl.replace checked hash false;
            let* () =
              List.fold_left
                (fun acc dep ->
                  let* () = acc in
                  check ~spec dep)
                (Ok ()) n.Concrete.deps
            in
            (* the lock stores dependencies as their hashes *)
            if Concrete.node_hash n n.Concrete.deps = hash then begin
              Hashtbl.replace checked hash true;
              Ok ()
            end
            else
              Error
                (Printf.sprintf "%s: recorded hash %s of %s does not match its DAG"
                   spec hash n.Concrete.name))
  in
  fun ~spec ~hash ->
    let* () = check ~spec hash in
    let names = Hashtbl.create 16 and named = Hashtbl.create 16 in
    let rec visit acc hash =
      let* acc = acc in
      if Hashtbl.mem names hash then Ok acc
      else
        let n = Hashtbl.find nodes hash in
        if Hashtbl.mem named n.Concrete.name then
          Error (Printf.sprintf "%s: two nodes named %s" spec n.Concrete.name)
        else begin
          Hashtbl.add names hash n.Concrete.name;
          Hashtbl.add named n.Concrete.name ();
          List.fold_left visit (Ok ((n, hash) :: acc)) n.Concrete.deps
        end
    in
    let* closure = visit (Ok []) hash in
    Result.map_error
      (Format.asprintf "%s: %a" spec Concrete.pp_validation_error)
      (Concrete.make_hashed
         ~root:(Hashtbl.find names hash)
         (List.map
            (fun ((n : Concrete.node), h) ->
              ({ n with Concrete.deps = List.map (Hashtbl.find names) n.deps }, h))
            closure))

let parse_lock payload =
  let* j = Json.of_string payload in
  let* parts =
    match Json.member "fingerprint" j with
    | Some (Json.Obj fields) ->
        all
          (fun (part, v) ->
            match Json.get_string v with
            | Some fp -> Ok (part, fp)
            | None -> Error ("fingerprint: ill-typed " ^ part))
          fields
    | _ -> Error "missing fingerprint"
  in
  let* nodes =
    match Json.member "nodes" j with
    | Some (Json.Obj fields) ->
        let* nodes =
          all
            (fun (hash, nj) ->
              Result.map (fun n -> (hash, n)) (Concrete.node_of_json nj))
            fields
        in
        Ok (Hashtbl.of_seq (List.to_seq nodes))
    | _ -> Error "missing nodes"
  in
  let* roots =
    match Option.bind (Json.member "roots" j) Json.to_list with
    | Some items ->
        let dag_of = dags_of nodes in
        all
          (fun item ->
            let* spec = get "root" "spec" Json.get_string item in
            let* hash = get spec "hash" Json.get_string item in
            let* merkle = get spec "merkle" Json.get_string item in
            let* c = dag_of ~spec ~hash in
            Ok (spec, merkle, c))
          items
    | None -> Error "missing roots"
  in
  Ok (parts, roots)

let read_lock (ctx : Context.t) t =
  match Vfs.read_file ctx.Context.vfs (lock_path t.env_name) with
  | Error _ -> Error Lock_missing
  | Ok content -> (
      match Result.bind (lock_payload content) parse_lock with
      | Error why -> Error (Lock_corrupt why)
      | Ok (parts, specs) -> (
          let current = current_parts ctx in
          let drifted =
            List.filter
              (fun (part, fp) -> List.assoc_opt part parts <> Some fp)
              current
          in
          let stale ~lock_fp ~current_fp reason =
            Error (Lock_stale { lock_fp; current_fp; reason })
          in
          match drifted with
          | (part, current_fp) :: _ ->
              stale
                ~lock_fp:(Option.value (List.assoc_opt part parts) ~default:"")
                ~current_fp
                (Printf.sprintf "%s fingerprint changed"
                   (String.concat ", " (List.map fst drifted)))
          | [] -> (
              let roots = List.map (fun (r, _, _) -> r) specs in
              if roots <> t.env_roots then
                stale ~lock_fp:"" ~current_fp:""
                  "environment roots changed since lock"
              else
                (* the parts cover everything but the recipes; the
                   per-root Merkle fingerprint catches an edited package
                   inside any locked closure *)
                let cx = Ccache.context_of ctx.Context.ccache in
                let drifted =
                  List.filter_map
                    (fun (root, merkle, c) ->
                      let now = Ccache.entry_fingerprint cx c in
                      if now = merkle then None else Some (root, merkle, now))
                    specs
                in
                match drifted with
                | [] ->
                    Ok
                      {
                        lk_fingerprint = parts;
                        lk_roots = roots;
                        lk_specs = List.map (fun (r, _, c) -> (r, c)) specs;
                      }
                | (_, lock_fp, current_fp) :: _ ->
                    stale ~lock_fp ~current_fp
                      (Printf.sprintf "package recipes drifted under %s"
                         (String.concat ", "
                            (List.map (fun (r, _, _) -> r) drifted))))))

let locked_specs (ctx : Context.t) t =
  match read_lock ctx t with
  | Ok lock -> Ok (List.map snd lock.lk_specs)
  | Error e -> Error (lock_error_to_string e)

(* ------------------------------------------------------------------ *)
(* Solve / fetch                                                      *)

let parse_roots t =
  List.fold_left
    (fun acc root ->
      let* asts = acc in
      let* ast = Parser.parse root in
      Ok (ast :: asts))
    (Ok []) t.env_roots
  |> Result.map List.rev

(* The unified solve: all roots in one pass through the shared constraint
   context, memoized in the ordinary concretization cache. *)
let concretize_roots (ctx : Context.t) t =
  let* asts = parse_roots t in
  let before = Ccache.length ctx.Context.ccache in
  let result =
    Obs.span ctx.Context.obs ~cat:"concretize" "concretize" (fun () ->
        Multiroot.solve ~cache:ctx.Context.ccache ~obs:ctx.Context.obs
          ~backend:ctx.Context.backend ~config:ctx.Context.config
          ~compilers:ctx.Context.compilers ~repo:ctx.Context.repo asts)
  in
  match result with
  | Error e -> Error (Multiroot.error_to_string e)
  | Ok concretes ->
      if Ccache.length ctx.Context.ccache <> before then
        Context.save_ccache ctx;
      Ok (List.combine (List.map Printer.to_string asts) concretes)

let sync_view_specs (ctx : Context.t) t concretes =
  match t.env_view with
  | None -> Ok 0
  | Some view_root ->
      let* report = Commands.view_closure ctx ~view_root concretes in
      Ok report.Ospack_views.View.mr_linked

let sync_view (ctx : Context.t) t =
  match read_lock ctx t with
  | Error e -> Error (lock_error_to_string e)
  | Ok lock -> sync_view_specs ctx t (List.map snd lock.lk_specs)

type report = {
  er_roots : (string * Concrete.t) list;
  er_report : Installer.parallel_report;
  er_linked : int;
}

let install_specs (ctx : Context.t) t ~jobs pairs =
  let* preport =
    Obs.span ctx.Context.obs ~cat:"install" "install" (fun () ->
        Installer.install_parallel ctx.Context.installer ~jobs
          (List.map snd pairs))
  in
  match preport.Installer.pr_failures with
  | [] ->
      let* linked = sync_view_specs ctx t (List.map snd pairs) in
      Ok { er_roots = pairs; er_report = preport; er_linked = linked }
  | failures -> Error (Installer.failures_to_string failures)

let install ?(jobs = 1) (ctx : Context.t) t =
  let* pairs = concretize_roots ctx t in
  (* reproducibility invariant, checked in anger on every install: when a
     valid lock already exists at this fingerprint for these roots, the
     fresh unified solve must agree with it hash-for-hash *)
  let* () =
    match read_lock ctx t with
    | Ok lock when lock.lk_roots = List.map fst pairs ->
        List.fold_left2
          (fun acc (root, fresh) (_, locked) ->
            let* () = acc in
            if Concrete.root_hash fresh = Concrete.root_hash locked then Ok ()
            else
              Error
                (Printf.sprintf
                   "lockfile invariant violated for %s: fresh solve %s vs \
                    locked %s at the same fingerprint"
                   root
                   (Concrete.root_hash fresh)
                   (Concrete.root_hash locked)))
          (Ok ()) pairs lock.lk_specs
    | Ok _ | Error _ -> Ok ()
  in
  let* () = write_lock ctx t pairs in
  install_specs ctx t ~jobs pairs

type locked_error =
  | Locked_lock of lock_error
  | Locked_failed of string

let locked_error_to_string = function
  | Locked_lock e -> lock_error_to_string e
  | Locked_failed e -> e

(* The fetch half of the split: no solving, no lock rewriting — install
   exactly the locked DAGs, or fail typed before touching the store (a
   stale or corrupt lock never yields a partial install). *)
let install_locked ?(jobs = 1) (ctx : Context.t) t =
  match read_lock ctx t with
  | Error e -> Error (Locked_lock e)
  | Ok lock -> (
      match install_specs ctx t ~jobs lock.lk_specs with
      | Ok report -> Ok report
      | Error e -> Error (Locked_failed e))

let status (ctx : Context.t) t =
  let db = Installer.database ctx.Context.installer in
  match read_lock ctx t with
  | Ok lock ->
      List.map
        (fun (root, c) ->
          (root, Database.find_by_hash db (Concrete.root_hash c) <> None))
        lock.lk_specs
  | Error _ ->
      List.map
        (fun root ->
          let installed =
            match Parser.parse root with
            | Error _ -> false
            | Ok ast -> Database.find_satisfying db ast <> []
          in
          (root, installed))
        t.env_roots

(* ------------------------------------------------------------------ *)
(* Crash-consistency torture for the environment files                 *)

type torture_report = {
  et_jobs : int;
  et_barriers : int;
  et_kills : int;
  et_manifest_intact : int;
  et_lock_intact : int;
}

let torture_report_to_string r =
  Printf.sprintf
    "env torture: %d write barriers at -j%d, %d kill points — manifest \
     intact at %d, lockfile intact at %d, recovery converged at every one"
    r.et_barriers r.et_jobs r.et_kills r.et_manifest_intact r.et_lock_intact

(* The whole env lifecycle (create, add each root, install) against a
   fresh context: the operation the sweep kills, and also the recovery —
   re-run over a crashed filesystem, it resumes from whatever manifest
   survived, skipping only the roots that manifest already holds. *)
let torture_sequence ?config ?backend ~jobs ~name ~view ~roots vfs =
  let ctx = Context.create ?config ?backend ~vfs () in
  let* _ = Installer.load_index ctx.Context.installer in
  let* env =
    if Vfs.exists vfs (manifest_path name) then load ctx ~name
    else create ctx ~name ?view ()
  in
  let* env =
    List.fold_left
      (fun acc root ->
        let* env = acc in
        match canonical root with
        | Ok c when List.mem c env.env_roots -> Ok env
        | _ -> add ctx env root)
      (Ok env) roots
  in
  let* _report = install ~jobs ctx env in
  Ok ctx

let torture ?(jobs = 1) ?every ?config ?backend ~name ?view ~roots () =
  let run = torture_sequence ?config ?backend ~jobs ~name ~view ~roots in
  let world () =
    let vfs = Vfs.create () in
    (vfs, vfs)
  in
  let db_of ctx =
    Json.to_string (Database.to_json (Installer.database ctx.Context.installer))
  in
  let check (ref_vfs, _, ref_ctx) =
    let ref_lock =
      Result.value (Vfs.read_file ref_vfs (lock_path name)) ~default:""
    in
    let ref_db = db_of ref_ctx in
    fun ~kill:_ vfs _ ->
      (* old-or-new: whatever of the manifest/lockfile exists at the kill
         point must be a complete previous version, never a torn write *)
      let intact what path =
        match Vfs.read_file vfs path with
        | Error _ -> Ok 0
        | Ok content when Result.is_ok (Json.of_string content) -> Ok 1
        | Ok _ -> Error ("torn " ^ what)
      in
      let* manifest = intact "manifest" (manifest_path name) in
      let* lock = intact "lockfile" (lock_path name) in
      (* recovery: a fresh context over the crashed filesystem must
         converge to exactly the reference store and lockfile *)
      let* ctx = Result.map_error (( ^ ) "recovery: ") (run vfs) in
      let* () =
        if db_of ctx = ref_db then Ok () else Error "recovered index diverged"
      in
      match Vfs.read_file vfs (lock_path name) with
      | Ok c when c = ref_lock -> Ok (manifest, lock)
      | Ok _ -> Error "recovered lockfile diverged"
      | Error _ -> Error "no lockfile after recovery"
  in
  let* sweep =
    Result.map_error (( ^ ) "torture: ")
      (Vfs.crash_sweep ?every ~world ~op:run ~check ())
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 sweep.sw_kills in
  Ok
    {
      et_jobs = jobs;
      et_barriers = sweep.sw_barriers;
      et_kills = List.length sweep.sw_kills;
      et_manifest_intact = sum fst;
      et_lock_intact = sum snd;
    }
