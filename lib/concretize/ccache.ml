module Printer = Ospack_spec.Printer
module Concrete = Ospack_spec.Concrete
module Repository = Ospack_package.Repository
module Provider_index = Ospack_package.Provider_index
module Compilers = Ospack_config.Compilers
module Config = Ospack_config.Config
module Version = Ospack_version.Version
module Sha256 = Ospack_hash.Sha256
module Hex = Ospack_hash.Hex
module Json = Ospack_json.Json
module Vfs = Ospack_vfs.Vfs
module Sharded_dir = Ospack_vfs.Sharded_dir
module Obs = Ospack_obs.Obs
module StrSet = Set.Make (String)

(* Bump when the concretizer's semantics change: a cache produced by an
   older algorithm must not be trusted by a newer one. *)
let algorithm_version = "greedy-fixpoint-1"

(* The validation context: a base fingerprint over the inputs shared by
   every entry (algorithm+backend tag, repository name, toolchains,
   configuration — everything except package recipes), plus the
   repository (whose identity hashes it memoizes) and its provider index
   for the per-entry Merkle fingerprints, and those fingerprints by
   closure. *)
type context = {
  cx_base : string;
  cx_parts : (string * string) list Lazy.t;
      (* the base's inputs hashed per part, in base order: a lockfile
         records them so a drift names its part *)
  cx_repo : Repository.t;
  cx_providers : Provider_index.t Lazy.t;
  cx_fingerprints : (string, string) Hashtbl.t;
      (* closure key -> its entry fingerprint: the fingerprint reads only
         the closure's names and the virtuals they provide, and every
         identity hash and provider behind them is fixed with the
         context *)
}

type entry = {
  e_concrete : Concrete.t;
  e_merkle : string;
      (* fingerprinted once, at store or read-back: the context never
         changes, so the recorded value stays exact *)
}

(* a memoized failure, and what its rendering explains once asked for
   ([Some None]: the backend gave no explanation) *)
type failure = {
  f_error : Cerror.t;
  mutable f_explanation : Cerror.explanation option option;
}

type t = {
  cc_context : context;
  cc_dir : (Vfs.t * string) option;
      (* the backing sharded directory: one file per entry *)
  cc_entries : (string, entry) Hashtbl.t;
      (* authoritative: canonical abstract spec -> its concretization *)
  cc_pending : (string, string) Hashtbl.t;
      (* keys stored since the last save, with their file keys: all a
         save writes *)
  mutable cc_last_read : (string * string) option;
      (* the key and file key of the last entry file a lookup read (or
         found missing): the store after a miss names its file from it *)
  mutable cc_seeds : Concrete.node Concrete.Smap.t;
      (* advisory: package name -> a concrete node it pinned to in some
         stored result, the last store winning. Seeds accelerate the
         fixed point (sub-DAG memo) but are never returned as answers —
         a node's parameters inside one DAG need not match its
         standalone concretization. *)
  mutable cc_seed_count : int;  (* bindings in [cc_seeds] *)
  cc_failures : (string, failure) Hashtbl.t;
      (* keys whose solve failed under this context: memory only, never
         persisted or counted in [length] *)
  cc_obs : Obs.t;
}

let context ?(backend = "greedy") ?providers ~repo ~compilers ~config () =
  (* the base is one SHA-256 over the parts' lines in this order; each
     part is kept so [fingerprint_parts] can hash it alone. The backend
     is part of the algorithm tag: greedy and clause-solver entries must
     never cross-contaminate *)
  let backend = "algorithm " ^ algorithm_version ^ "+" ^ backend ^ "\n" in
  let universe = "repo " ^ Repository.name repo ^ "\n" in
  let toolchains =
    String.concat ""
      (List.map
         (fun tc ->
           Printf.sprintf
             "compiler %s@%s cc=%s cxx=%s f77=%s fc=%s archs=%s features=%s\n"
             tc.Compilers.tc_name
             (Version.to_string tc.Compilers.tc_version)
             tc.Compilers.tc_cc tc.Compilers.tc_cxx tc.Compilers.tc_f77
             tc.Compilers.tc_fc
             (String.concat "," tc.Compilers.tc_archs)
             (String.concat "," tc.Compilers.tc_features))
         (Compilers.all compilers))
  in
  (* Policy functions are pure over the config, so the config's key/value
     rendering covers every policy input. *)
  let config =
    String.concat ""
      (List.map
         (fun key ->
           let v = Option.value (Config.get config key) ~default:"" in
           Printf.sprintf "config %s=%s\n" key v)
         (Config.keys config))
  in
  let parts =
    [
      ("backend", backend);
      ("universe", universe);
      ("toolchains", toolchains);
      ("config", config);
    ]
  in
  let ctx = Sha256.init () in
  List.iter (fun (_, lines) -> Sha256.feed ctx lines) parts;
  {
    cx_base = Hex.encode (Sha256.finalize ctx);
    cx_parts =
      lazy (List.map (fun (part, lines) -> (part, Sha256.hex_digest lines)) parts);
    cx_repo = repo;
    cx_providers =
      (match providers with
      | Some index -> Lazy.from_val index
      | None -> lazy (Provider_index.build repo));
    cx_fingerprints = Hashtbl.create 16;
  }

let base_fingerprint cx = cx.cx_base
let fingerprint_parts cx = Lazy.force cx.cx_parts

let identity_hash cx name = Repository.identity_hash cx.cx_repo name

(* The per-entry Merkle fingerprint: a hash over the identity hashes of
   exactly the packages in the entry's dependency closure, plus — for
   each virtual interface the closure uses — the identity of every
   current provider of that interface (a new, removed, or edited
   provider can change which one concretization picks, even if the
   stored DAG never contained it). Editing a recipe therefore
   invalidates only the entries whose closure (or provider set) can see
   the edit. This computes it from scratch. *)
let fingerprint cx concrete =
  let ctx = Sha256.init () in
  Sha256.feed ctx ("base " ^ cx.cx_base ^ "\n");
  let virtuals = ref StrSet.empty in
  List.iter
    (fun (n : Concrete.node) ->
      Sha256.feed ctx
        (Printf.sprintf "node %s %s\n" n.Concrete.name
           (identity_hash cx n.Concrete.name));
      List.iter
        (fun (v, _) -> virtuals := StrSet.add v !virtuals)
        n.Concrete.provided)
    (Concrete.nodes concrete);
  StrSet.iter
    (fun v ->
      let providers =
        Provider_index.providers (Lazy.force cx.cx_providers) v
        |> List.map (fun (e : Provider_index.entry) ->
               e.Provider_index.e_provider ^ "="
               ^ identity_hash cx e.Provider_index.e_provider)
      in
      Sha256.feed ctx
        (Printf.sprintf "virtual %s providers %s\n" v
           (String.concat "," providers)))
    !virtuals;
  Hex.encode (Sha256.finalize ctx)

(* What [fingerprint] reads of a DAG: its node names, in order, each
   with the virtuals it provides. Names hold no space or newline. *)
let closure_key concrete =
  let b = Buffer.create 128 in
  List.iter
    (fun (n : Concrete.node) ->
      Buffer.add_string b n.Concrete.name;
      List.iter
        (fun (v, _) ->
          Buffer.add_char b ' ';
          Buffer.add_string b v)
        n.Concrete.provided;
      Buffer.add_char b '\n')
    (Concrete.nodes concrete);
  Buffer.contents b

let entry_fingerprint cx concrete =
  let key = closure_key concrete in
  match Hashtbl.find_opt cx.cx_fingerprints key with
  | Some fp -> fp
  | None ->
      let fp = fingerprint cx concrete in
      Hashtbl.add cx.cx_fingerprints key fp;
      fp

let create ?(obs = Obs.disabled) ?dir ~context:cx () =
  {
    cc_context = cx;
    cc_dir = dir;
    cc_entries = Hashtbl.create 64;
    cc_pending = Hashtbl.create 8;
    cc_last_read = None;
    cc_seeds = Concrete.Smap.empty;
    cc_seed_count = 0;
    cc_failures = Hashtbl.create 8;
    cc_obs = obs;
  }

let context_of t = t.cc_context

let key_of ast = Printer.to_string ast

let format_version = 2

(* An entry's file name: the base is part of it, so entries made under
   another toolchain, config or backend are never even read *)
let file_key cx key = Sha256.hex_digest (cx.cx_base ^ "\n" ^ key)

let entry_path t ast =
  Option.map
    (fun (_, root) ->
      Sharded_dir.path ~root (file_key t.cc_context (key_of ast)))
    t.cc_dir

let entry_fields key ~merkle concrete =
  [
    ("spec", Json.String key);
    ("merkle", Json.String merkle);
    ("concrete", Concrete.to_json concrete);
  ]

let header cx =
  [ ("format", Json.Int format_version); ("base", Json.String cx.cx_base) ]

(* A stored entry is valid iff its recorded Merkle fingerprint still
   equals the one its concrete DAG hashes to under the current context. *)
let entry_of_json cx json =
  let open Json in
  match
    ( Option.bind (member "spec" json) get_string,
      Option.bind (member "merkle" json) get_string,
      member "concrete" json )
  with
  | Some key, Some merkle, Some cj -> (
      match Concrete.of_json cj with
      | Ok c when entry_fingerprint cx c = merkle ->
          Some (key, { e_concrete = c; e_merkle = merkle })
      | Ok _ | Error _ -> None)
  | _ -> None

let current_header cx json =
  let open Json in
  Option.bind (member "format" json) get_int = Some format_version
  && Option.bind (member "base" json) get_string = Some cx.cx_base

let add t key e =
  Hashtbl.replace t.cc_entries key e;
  List.iter
    (fun (n : Concrete.node) ->
      if not (Concrete.Smap.mem n.Concrete.name t.cc_seeds) then
        t.cc_seed_count <- t.cc_seed_count + 1;
      t.cc_seeds <- Concrete.Smap.add n.Concrete.name n t.cc_seeds)
    (Concrete.nodes e.e_concrete)

(* Read one entry's file back: anything but a current, untampered entry
   for exactly this key is removed and counted, so it costs one
   invalidation once rather than a parse on every later miss. *)
let read_back t (vfs, root) key =
  let cx = t.cc_context in
  let fk = file_key cx key in
  t.cc_last_read <- Some (key, fk);
  match Vfs.read_file vfs (Sharded_dir.path ~root fk) with
  | Error _ -> None
  | Ok text -> (
      let valid =
        match Json.of_string text with
        | Ok json when current_header cx json -> (
            match entry_of_json cx json with
            | Some (k, e) when k = key -> Some e
            | _ -> None)
        | Ok _ | Error _ -> None
      in
      match valid with
      | Some e ->
          add t key e;
          Some e
      | None ->
          Obs.count t.cc_obs "ccache.invalidations" 1;
          ignore (Sharded_dir.remove vfs ~root fk);
          None)

let lookup t ast =
  let key = key_of ast in
  let found =
    match Hashtbl.find_opt t.cc_entries key with
    | Some e -> Some e
    | None -> Option.bind t.cc_dir (fun dir -> read_back t dir key)
  in
  match found with
  | Some e ->
      Obs.count t.cc_obs "ccache.hits" 1;
      Some e.e_concrete
  | None ->
      Obs.count t.cc_obs "ccache.misses" 1;
      None

let store_entry t key e =
  add t key e;
  if Option.is_some t.cc_dir then
    let fk =
      match t.cc_last_read with
      | Some (k, fk) when k = key -> fk
      | Some _ | None -> file_key t.cc_context key
    in
    Hashtbl.replace t.cc_pending key fk

let store t ast concrete =
  let merkle = entry_fingerprint t.cc_context concrete in
  store_entry t (key_of ast) { e_concrete = concrete; e_merkle = merkle }

(* the failure memo is empty on every stream of solvable queries, which
   then never print a key for it *)
let failure t ast =
  if Hashtbl.length t.cc_failures = 0 then None
  else
    match Hashtbl.find_opt t.cc_failures (key_of ast) with
    | Some f ->
        Obs.count t.cc_obs "ccache.failure_hits" 1;
        Some f.f_error
    | None -> None

let store_failure t ast e =
  Hashtbl.replace t.cc_failures (key_of ast)
    { f_error = e; f_explanation = None }

let failure_explanation t ast explain =
  match Hashtbl.find_opt t.cc_failures (key_of ast) with
  | None -> explain ()
  | Some { f_explanation = Some x; _ } -> x
  | Some f ->
      let x = explain () in
      f.f_explanation <- Some x;
      x

let memo ?cache ?installed ~obs ast solve =
  let reused =
    match installed with
    | None -> None
    | Some find ->
        Obs.span obs ~cat:"ccache" "ccache.reuse_lookup" (fun () ->
            let found = find ast in
            if Option.is_some found then Obs.count obs "ccache.reuse_hits" 1;
            found)
  in
  match (reused, cache) with
  | Some c, _ -> Ok c
  | None, None -> solve ()
  | None, Some t -> (
      match
        Obs.span obs ~cat:"ccache" "ccache.lookup" (fun () -> lookup t ast)
      with
      | Some c -> Ok c
      | None -> (
          match failure t ast with
          | Some e -> Error e
          | None ->
              let result = solve () in
              (match result with
              | Ok c -> store t ast c
              | Error e -> store_failure t ast e);
              result))

let seed_map t = t.cc_seeds
let seed_count t = t.cc_seed_count
let seeds t = Concrete.Smap.bindings t.cc_seeds

let length t = Hashtbl.length t.cc_entries

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

(* the reference rendering: every fingerprint recomputed from scratch *)
let to_json t =
  let cx = t.cc_context in
  let entries =
    List.map
      (fun k ->
        let c = (Hashtbl.find t.cc_entries k).e_concrete in
        Json.Obj (entry_fields k ~merkle:(fingerprint cx c) c))
      (sorted_keys t.cc_entries)
  in
  Json.Obj (header cx @ [ ("entries", Json.List entries) ])

(* [ccache.invalidations] counts evicted entries — one per entry under a
   wholesale format or base mismatch too, so the counter always means
   "entries lost". *)
let import t text =
  let cx = t.cc_context in
  let count = Obs.count t.cc_obs "ccache.invalidations" in
  match Json.of_string text with
  | Error _ -> count 1
  | Ok json ->
      let entries =
        Option.value ~default:[]
          (Option.bind (Json.member "entries" json) Json.to_list)
      in
      if current_header cx json then
        List.iter
          (fun e ->
            match entry_of_json cx e with
            | Some (key, entry) -> store_entry t key entry
            | None -> count 1)
          entries
      else count (max 1 (List.length entries))

let save t =
  match t.cc_dir with
  | None -> Ok ()
  | Some (vfs, root) ->
      let cx = t.cc_context in
      let rec write = function
        | [] -> Ok ()
        | key :: rest -> (
            let e = Hashtbl.find t.cc_entries key in
            let doc =
              Json.Obj
                (header cx @ entry_fields key ~merkle:e.e_merkle e.e_concrete)
            in
            match
              Sharded_dir.write vfs ~root
                (Hashtbl.find t.cc_pending key)
                (Json.to_string doc)
            with
            | Ok () ->
                Hashtbl.remove t.cc_pending key;
                write rest
            | Error (_, _, err) -> Error (Vfs.error_to_string err))
      in
      write (sorted_keys t.cc_pending)
