module Ast = Ospack_spec.Ast
module Printer = Ospack_spec.Printer
module Concrete = Ospack_spec.Concrete
module Repository = Ospack_package.Repository
module Package = Ospack_package.Package
module Provider_index = Ospack_package.Provider_index
module Compilers = Ospack_config.Compilers
module Config = Ospack_config.Config
module Version = Ospack_version.Version
module Sha256 = Ospack_hash.Sha256
module Hex = Ospack_hash.Hex
module Json = Ospack_json.Json
module Vfs = Ospack_vfs.Vfs
module Obs = Ospack_obs.Obs
module StrSet = Set.Make (String)

(* Bump when the concretizer's semantics change: a cache produced by an
   older algorithm must not be trusted by a newer one. *)
let algorithm_version = "greedy-fixpoint-1"

(* The validation context: a base fingerprint over the inputs shared by
   every entry (algorithm+backend tag, repository name, toolchains,
   configuration — everything except package recipes), plus memoized
   per-package identity hashes and the provider index for the per-entry
   Merkle fingerprints. *)
type context = {
  cx_base : string;
  cx_repo : Repository.t;
  cx_identity : (string, string) Hashtbl.t;
  cx_providers : Provider_index.t Lazy.t;
}

type entry = {
  e_concrete : Concrete.t;
  e_rendered : string;
      (* the entry's final bytes in the persisted document, Merkle
         fingerprint included: the context never changes, so rendering
         once at store/load time is exact *)
}

type t = {
  cc_context : context;
  cc_entries : (string, entry) Hashtbl.t;
      (* authoritative: canonical abstract spec -> its concretization *)
  cc_seeds : (string, Concrete.node) Hashtbl.t;
      (* advisory: package name -> a concrete node it pinned to in some
         stored result. Seeds accelerate the fixed point (sub-DAG memo)
         but are never returned as answers — a node's parameters inside
         one DAG need not match its standalone concretization. *)
  cc_obs : Obs.t;
}

let context ?(backend = "greedy") ~repo ~compilers ~config () =
  let ctx = Sha256.init () in
  (* the backend is part of the algorithm tag: greedy and clause-solver
     entries must never cross-contaminate *)
  Sha256.feed ctx ("algorithm " ^ algorithm_version ^ "+" ^ backend ^ "\n");
  Sha256.feed ctx ("repo " ^ Repository.name repo ^ "\n");
  List.iter
    (fun tc ->
      Sha256.feed ctx
        (Printf.sprintf "compiler %s@%s cc=%s cxx=%s f77=%s fc=%s archs=%s features=%s\n"
           tc.Compilers.tc_name
           (Version.to_string tc.Compilers.tc_version)
           tc.Compilers.tc_cc tc.Compilers.tc_cxx tc.Compilers.tc_f77
           tc.Compilers.tc_fc
           (String.concat "," tc.Compilers.tc_archs)
           (String.concat "," tc.Compilers.tc_features)))
    (Compilers.all compilers);
  (* Policy functions are pure over the config, so the config's key/value
     rendering covers every policy input. *)
  List.iter
    (fun key ->
      let v = Option.value (Config.get config key) ~default:"" in
      Sha256.feed ctx (Printf.sprintf "config %s=%s\n" key v))
    (Config.keys config);
  {
    cx_base = Hex.encode (Sha256.finalize ctx);
    cx_repo = repo;
    cx_identity = Hashtbl.create 64;
    cx_providers = lazy (Provider_index.build repo);
  }

let base_fingerprint cx = cx.cx_base

let identity_hash cx name =
  match Hashtbl.find_opt cx.cx_identity name with
  | Some h -> h
  | None ->
      let h =
        match Repository.find cx.cx_repo name with
        | Some pkg ->
            let c = Sha256.init () in
            Sha256.feed c (Package.identity_string pkg);
            Hex.encode (Sha256.finalize c)
        | None -> "absent"
      in
      Hashtbl.add cx.cx_identity name h;
      h

(* The per-entry Merkle fingerprint: a hash over the identity hashes of
   exactly the packages in the entry's dependency closure, plus — for
   each virtual interface the closure uses — the identity of every
   current provider of that interface (a new, removed, or edited
   provider can change which one concretization picks, even if the
   stored DAG never contained it). Editing a recipe therefore
   invalidates only the entries whose closure (or provider set) can see
   the edit. *)
let entry_fingerprint cx concrete =
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

let create ?(obs = Obs.disabled) ~context:cx () =
  {
    cc_context = cx;
    cc_entries = Hashtbl.create 64;
    cc_seeds = Hashtbl.create 64;
    cc_obs = obs;
  }

let context_of t = t.cc_context

let key_of ast = Printer.to_string ast

let lookup t ast =
  let key = key_of ast in
  match Hashtbl.find_opt t.cc_entries key with
  | Some e ->
      Obs.count t.cc_obs "ccache.hits" 1;
      Some e.e_concrete
  | None ->
      Obs.count t.cc_obs "ccache.misses" 1;
      None

let format_version = 2

let entry_json key ~merkle concrete =
  Json.Obj
    [
      ("spec", Json.String key);
      ("merkle", Json.String merkle);
      ("concrete", Concrete.to_json concrete);
    ]

let document cx entries =
  Json.Obj
    [
      ("format", Json.Int format_version);
      ("base", Json.String cx.cx_base);
      ("entries", Json.List entries);
    ]

(* an entry sits at depth 2 of the document: its object is an item of
   the "entries" list, itself a field of the top-level object *)
let add t key ~merkle concrete =
  let e_rendered =
    Json.to_string ~indent:2 ~depth:2 (entry_json key ~merkle concrete)
  in
  Hashtbl.replace t.cc_entries key { e_concrete = concrete; e_rendered };
  List.iter
    (fun (n : Concrete.node) -> Hashtbl.replace t.cc_seeds n.Concrete.name n)
    (Concrete.nodes concrete)

let store t ast concrete =
  add t (key_of ast) ~merkle:(entry_fingerprint t.cc_context concrete) concrete

let seeds t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cc_seeds []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let length t = Hashtbl.length t.cc_entries

let sorted_entries t =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.cc_entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* the reference rendering: every fingerprint recomputed from scratch *)
let to_json t =
  sorted_entries t
  |> List.map (fun (k, e) ->
         entry_json k
           ~merkle:(entry_fingerprint t.cc_context e.e_concrete)
           e.e_concrete)
  |> document t.cc_context

(* Byte-identical to [Json.to_string ~indent:2 (to_json t)], assembled
   from the fragments rendered at store/load time: the fixed header,
   the sorted fragments, the fixed footer. *)
let to_string t =
  match sorted_entries t with
  | [] -> Json.to_string ~indent:2 (document t.cc_context [])
  | entries ->
      (* one exactly-sized buffer: the file is copied once *)
      let b =
        Buffer.create
          (List.fold_left
             (fun n (_, e) -> n + String.length e.e_rendered + 6)
             256 entries)
      in
      Printf.bprintf b
        "{\n  \"format\": %d,\n  \"base\": %s,\n  \"entries\": ["
        format_version
        (Json.to_string (Json.String t.cc_context.cx_base));
      List.iteri
        (fun i (_, e) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b "\n    ";
          Buffer.add_string b e.e_rendered)
        entries;
      Buffer.add_string b "\n  ]\n}";
      Buffer.contents b

(* Validation is per entry: a stored entry survives iff its recorded
   Merkle fingerprint still equals the one its concrete DAG hashes to
   under the current context. [ccache.invalidations] counts evicted
   entries — one per entry under a wholesale base/format mismatch too,
   so the counter always means "entries lost". Seeds are harvested only
   from surviving entries. *)
let of_json ?(obs = Obs.disabled) ~context:cx json =
  let open Json in
  let entries =
    match Option.bind (member "entries" json) to_list with
    | Some l -> l
    | None -> []
  in
  let t = create ~obs ~context:cx () in
  (match
     ( Option.bind (member "format" json) get_int,
       Option.bind (member "base" json) get_string )
   with
  | Some fmt, Some base when fmt = format_version && base = cx.cx_base ->
      List.iter
        (fun e ->
          let evict () = Obs.count obs "ccache.invalidations" 1 in
          match
            ( Option.bind (member "spec" e) get_string,
              Option.bind (member "merkle" e) get_string,
              member "concrete" e )
          with
          | Some key, Some merkle, Some cj -> (
              match Concrete.of_json cj with
              | Ok c when entry_fingerprint cx c = merkle ->
                  add t key ~merkle c
              | Ok _ | Error _ -> evict ())
          | _ -> evict ())
        entries
  | _ ->
      (* wrong format or base context: every stored entry is lost *)
      Obs.count obs "ccache.invalidations" (max 1 (List.length entries)));
  t

let load ?(obs = Obs.disabled) ~context:cx fs ~path =
  match Vfs.read_file fs path with
  | Error _ -> create ~obs ~context:cx ()
  | Ok contents -> (
      match Json.of_string contents with
      | Error _ ->
          Obs.count obs "ccache.invalidations" 1;
          create ~obs ~context:cx ()
      | Ok json -> of_json ~obs ~context:cx json)

let save t fs ~path =
  Result.map_error
    (fun (_, _, e) -> Vfs.error_to_string e)
    (Vfs.write_atomic fs path (to_string t))
