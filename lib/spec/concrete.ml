module Smap = Ast.Smap
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist
module Dag = Ospack_dag.Dag

type node = {
  name : string;
  version : Version.t;
  compiler : string * Version.t;
  variants : bool Smap.t;
  arch : string;
  deps : string list;
  provided : (string * Vlist.t) list;
}

type t = {
  root : string;
  nodes : node Smap.t;
  dag : Dag.t;
  hashes : string Smap.t Lazy.t;
      (* every node's sub-DAG hash, computed on first lookup; a subspec
         shares its parent's, whose entries depend only on their sub-DAGs *)
}

type validation_error =
  | Missing_root of string
  | Missing_dep of { node : string; dep : string }
  | Cyclic of string list

let pp_validation_error fmt = function
  | Missing_root r -> Format.fprintf fmt "root package %s is not in the DAG" r
  | Missing_dep { node; dep } ->
      Format.fprintf fmt "%s depends on %s, which is not in the DAG" node dep
  | Cyclic cycle ->
      Format.fprintf fmt "dependency cycle: %s" (String.concat " -> " cycle)

let build_dag nodes =
  List.fold_left
    (fun dag n ->
      let dag = Dag.add_node dag n.name in
      List.fold_left
        (fun dag dep -> Dag.add_edge dag ~from:n.name ~to_:dep)
        dag n.deps)
    Dag.empty nodes

let variants_to_string variants =
  Smap.bindings variants
  |> List.map (fun (v, enabled) -> (if enabled then "+" else "~") ^ v)
  |> String.concat ""

let node_to_string n =
  let cname, cver = n.compiler in
  Printf.sprintf "%s@%s%%%s@%s%s=%s" n.name
    (Version.to_string n.version)
    cname
    (Version.to_string cver)
    (variants_to_string n.variants)
    n.arch

(* The canonical identity string hashed for a node includes everything that
   affects the build: parameters, provided virtuals, and the hashes of the
   dependency sub-DAGs (so equal sub-DAGs share hashes — Fig. 9). *)
let node_hash n dep_hashes =
  let provided =
    List.map
      (fun (v, vl) -> Printf.sprintf "%s=%s" v (Vlist.to_string vl))
      n.provided
    |> String.concat ","
  in
  let identity =
    String.concat "|" (node_to_string n :: provided :: dep_hashes)
  in
  String.sub (Ospack_hash.Sha256.hex_digest identity) 0 8

let hashes nodes =
  let memo = Hashtbl.create 16 in
  let rec hash_of name =
    match Hashtbl.find_opt memo name with
    | Some h -> h
    | None ->
        let n = Smap.find name nodes in
        let h = node_hash n (List.map hash_of n.deps) in
        Hashtbl.replace memo name h;
        h
  in
  Smap.mapi (fun name _ -> hash_of name) nodes

let validate ~root node_list =
  let nodes =
    List.fold_left (fun m n -> Smap.add n.name n m) Smap.empty node_list
  in
  let missing_dep =
    List.find_map
      (fun n ->
        List.find_map
          (fun d ->
            if Smap.mem d nodes then None
            else Some (Missing_dep { node = n.name; dep = d }))
          n.deps)
      node_list
  in
  match missing_dep with
  | Some e -> Error e
  | None ->
      if not (Smap.mem root nodes) then Error (Missing_root root)
      else
        let dag = build_dag node_list in
        match Dag.topological_sort dag with
        | Error cycle -> Error (Cyclic cycle)
        | Ok _ -> Ok (nodes, dag)

let make ~root node_list =
  Result.map
    (fun (nodes, dag) -> { root; nodes; dag; hashes = lazy (hashes nodes) })
    (validate ~root node_list)

let make_hashed ~root hashed =
  Result.map
    (fun (nodes, dag) ->
      let memo =
        List.fold_left
          (fun m (n, h) -> Smap.add n.name h m)
          Smap.empty hashed
      in
      { root; nodes; dag; hashes = Lazy.from_val memo })
    (validate ~root (List.map fst hashed))

let root t = t.root
let node t name = Smap.find_opt name t.nodes

let node_exn t name =
  match node t name with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Concrete.node_exn: no node %s" name)

let root_node t = node_exn t t.root
let nodes t = List.map snd (Smap.bindings t.nodes)
let node_count t = Smap.cardinal t.nodes
let deps_of t name = List.map (node_exn t) (node_exn t name).deps
let to_dag t = t.dag

let subspec t name =
  let _ = node_exn t name in
  let keep = Dag.reachable t.dag name in
  {
    root = name;
    nodes =
      List.fold_left
        (fun m n -> Smap.add n (node_exn t n) m)
        Smap.empty keep;
    dag = Dag.subgraph t.dag name;
    hashes = t.hashes;
  }

let topological_order t =
  match Dag.topological_sort t.dag with
  | Ok order -> order
  | Error _ -> assert false (* validated acyclic in [make] *)

let dag_hash t name =
  if Smap.mem name t.nodes then Smap.find name (Lazy.force t.hashes)
  else invalid_arg (Printf.sprintf "Concrete.dag_hash: no node %s" name)

let root_hash t = dag_hash t t.root

let as_ast_node n =
  let cname, cver = n.compiler in
  {
    Ast.name = n.name;
    versions = Vlist.of_version n.version;
    compiler =
      Some { Ast.c_name = cname; c_versions = Vlist.of_version cver };
    variants = n.variants;
    arch = Some n.arch;
  }

let node_satisfies n (c : Ast.node) =
  if c.name = "" || c.name = n.name then
    Constraint_ops.node_satisfies ~candidate:(as_ast_node n) ~constraint_:c
  else
    (* the constraint may name a virtual interface this node provides *)
    match List.assoc_opt c.name n.provided with
    | None -> false
    | Some provided_versions ->
        Vlist.intersects provided_versions c.versions
        && Constraint_ops.node_satisfies ~candidate:(as_ast_node n)
             ~constraint_:{ c with name = n.name; versions = Vlist.any }

let satisfies t (q : Ast.t) =
  node_satisfies (root_node t) q.root
  && Ast.Smap.for_all
       (fun _ c -> Smap.exists (fun _ n -> node_satisfies n c) t.nodes)
       q.deps

let to_string t =
  let others =
    Smap.bindings t.nodes
    |> List.filter (fun (name, _) -> name <> t.root)
    |> List.map (fun (_, n) -> " ^" ^ node_to_string n)
  in
  node_to_string (root_node t) ^ String.concat "" others

let tree_string t =
  Dag.to_tree
    ~pp_node:(fun name -> node_to_string (node_exn t name))
    ~root:t.root t.dag

let equal_node a b =
  a.name = b.name
  && Version.equal a.version b.version
  && fst a.compiler = fst b.compiler
  && Version.equal (snd a.compiler) (snd b.compiler)
  && Smap.equal Bool.equal a.variants b.variants
  && a.arch = b.arch
  && a.deps = b.deps
  && List.length a.provided = List.length b.provided
  && List.for_all2
       (fun (v1, l1) (v2, l2) -> v1 = v2 && Vlist.equal l1 l2)
       a.provided b.provided

let equal a b = a.root = b.root && Smap.equal equal_node a.nodes b.nodes

module Json = Ospack_json.Json

let node_to_json n =
  let cname, cver = n.compiler in
  Json.Obj
    [
      ("name", Json.String n.name);
      ("version", Json.String (Version.to_string n.version));
      ( "compiler",
        Json.Obj
          [
            ("name", Json.String cname);
            ("version", Json.String (Version.to_string cver));
          ] );
      ( "variants",
        Json.Obj
          (Smap.bindings n.variants
          |> List.map (fun (v, on) -> (v, Json.Bool on))) );
      ("arch", Json.String n.arch);
      ("deps", Json.List (List.map (fun d -> Json.String d) n.deps));
      ( "provided",
        Json.List
          (List.map
             (fun (virt, vl) ->
               Json.Obj
                 [
                   ("name", Json.String virt);
                   ("versions", Json.String (Vlist.to_string vl));
                 ])
             n.provided) );
    ]

let to_json t =
  Json.Obj
    [
      ("format", Json.Int 1);
      ("root", Json.String t.root);
      ("nodes", Json.List (List.map node_to_json (nodes t)));
    ]

let ( let* ) = Result.bind

let field what o key access =
  match Option.bind (Json.member key o) access with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "spec json: missing or ill-typed %s.%s" what key)

let version_of_json what s =
  match Version.of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "spec json: bad version %S in %s" s what)

let node_of_json j =
  let* name = field "node" j "name" Json.get_string in
  let what = "node " ^ name in
  let* version_s = field what j "version" Json.get_string in
  let* version = version_of_json what version_s in
  let* compiler_obj =
    match Json.member "compiler" j with
    | Some (Json.Obj _ as o) -> Ok o
    | _ -> Error (Printf.sprintf "spec json: missing %s.compiler" what)
  in
  let* cname = field what compiler_obj "name" Json.get_string in
  let* cver_s = field what compiler_obj "version" Json.get_string in
  let* cver = version_of_json what cver_s in
  let* variants =
    match Json.member "variants" j with
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (v, value) ->
            let* m = acc in
            match Json.get_bool value with
            | Some b -> Ok (Smap.add v b m)
            | None ->
                Error
                  (Printf.sprintf "spec json: non-boolean variant %s.%s" what v))
          (Ok Smap.empty) fields
    | _ -> Error (Printf.sprintf "spec json: missing %s.variants" what)
  in
  let* arch = field what j "arch" Json.get_string in
  let* deps =
    match Option.bind (Json.member "deps" j) Json.to_list with
    | None -> Error (Printf.sprintf "spec json: missing %s.deps" what)
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* ds = acc in
            match Json.get_string item with
            | Some d -> Ok (d :: ds)
            | None -> Error (Printf.sprintf "spec json: bad dep in %s" what))
          (Ok []) items
        |> Result.map List.rev
  in
  let* provided =
    match Option.bind (Json.member "provided" j) Json.to_list with
    | None -> Ok []
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* ps = acc in
            let* vname = field what item "name" Json.get_string in
            let* vers = field what item "versions" Json.get_string in
            match Vlist.of_string vers with
            | vl -> Ok ((vname, vl) :: ps)
            | exception Invalid_argument _ ->
                Error
                  (Printf.sprintf "spec json: bad provided versions in %s" what))
          (Ok []) items
        |> Result.map List.rev
  in
  Ok { name; version; compiler = (cname, cver); variants; arch; deps; provided }

let of_json j =
  let* root = field "spec" j "root" Json.get_string in
  let* node_items =
    match Option.bind (Json.member "nodes" j) Json.to_list with
    | Some items -> Ok items
    | None -> Error "spec json: missing nodes"
  in
  let* node_list =
    List.fold_left
      (fun acc item ->
        let* ns = acc in
        let* n = node_of_json item in
        Ok (n :: ns))
      (Ok []) node_items
  in
  match make ~root node_list with
  | Ok t -> Ok t
  | Error e -> Error (Format.asprintf "spec json: %a" pp_validation_error e)

let pp fmt t = Format.pp_print_string fmt (to_string t)
