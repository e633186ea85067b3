module Ast = Ospack_spec.Ast
module Smap = Ospack_spec.Ast.Smap
module Concrete = Ospack_spec.Concrete
module Printer = Ospack_spec.Printer
module Constraint_ops = Ospack_spec.Constraint_ops
module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Sha256 = Ospack_hash.Sha256

type error =
  | Root_conflict of {
      package : string;
      left_root : string;
      right_root : string;
      conflict : Constraint_ops.conflict;
    }
  | Unsat of Cerror.t
  | Dropped_root of string

let error_to_string = function
  | Root_conflict { package; left_root; right_root; conflict } ->
      Printf.sprintf
        "environment roots conflict on %s: %s (from %s) vs (from %s)" package
        (Constraint_ops.conflict_to_string conflict)
        left_root right_root
  | Unsat e -> Cerror.to_string e
  | Dropped_root r ->
      Printf.sprintf "unified solve dropped root %s from the DAG" r

(* The synthetic root's name carries a digest of the canonical root
   strings, so two environments with different root sets can never share
   a cache key even when their merged constraint maps coincide (e.g. a
   root demoted to a mere ^constraint of another root). The hash suffix
   also makes a collision with a real package name practically
   impossible; the ccache treats any name absent from the repository as
   the constant identity "absent", so entries keyed by the meta spec
   validate exactly like ordinary ones. *)
let meta_name roots =
  let digest = Sha256.hex_digest (String.concat "\n" roots) in
  "env-roots-" ^ String.sub digest 0 12

(* Merge every root's constraints into one flat map: each root's root
   node lands under its own package name, each of its ^constraints under
   the dependency's name, and collisions intersect — a typed conflict
   here is the unify semantics working, not a failure of it. The map
   remembers which root contributed each node so the conflict message
   can name both sides. *)
let merged_constraints asts =
  let add acc root_text node =
    if node.Ast.name = "" then Ok acc
    else
      match Smap.find_opt node.Ast.name acc with
      | None -> Ok (Smap.add node.Ast.name (node, root_text) acc)
      | Some (prev, prev_root) -> (
          match Constraint_ops.intersect_node prev node with
          | Ok merged -> Ok (Smap.add node.Ast.name (merged, prev_root) acc)
          | Error conflict ->
              Error
                (Root_conflict
                   {
                     package = node.Ast.name;
                     left_root = prev_root;
                     right_root = root_text;
                     conflict;
                   }))
  in
  List.fold_left
    (fun acc ast ->
      Result.bind acc (fun m ->
          let root_text = Printer.to_string ast in
          let nodes =
            ast.Ast.root :: List.map snd (Smap.bindings ast.Ast.deps)
          in
          List.fold_left
            (fun m node -> Result.bind m (fun m -> add m root_text node))
            (Ok m) nodes))
    (Ok Smap.empty) asts

(* One package depending on every distinct root name pulls all roots
   into a single greedy (or clause) solve; virtual roots resolve through
   the provider index like any other virtual dependency. *)
let meta_package name asts =
  let root_names =
    List.sort_uniq String.compare
      (List.map (fun a -> a.Ast.root.Ast.name) asts)
  in
  Package.make_pkg name
    ~description:"synthetic environment root (one dep per env root)"
    (Package.version "1" :: List.map Package.depends_on root_names)

let meta_ast name constraints =
  { Ast.root = Ast.unconstrained name; deps = Smap.map fst constraints }

(* Split the unified DAG back into per-root concrete specs. A root that
   names a virtual interface resolves to the node providing it. *)
let split_root concrete ast =
  let rn = ast.Ast.root.Ast.name in
  let target =
    match Concrete.node concrete rn with
    | Some n -> Some n.Concrete.name
    | None ->
        List.find_map
          (fun (n : Concrete.node) ->
            if List.mem_assoc rn n.Concrete.provided then
              Some n.Concrete.name
            else None)
          (Concrete.nodes concrete)
  in
  match target with
  | Some name -> Ok (Concrete.subspec concrete name)
  | None -> Error (Dropped_root (Printer.to_string ast))

let solve ?cache ?obs ~backend ~config ~compilers ~repo asts =
  match asts with
  | [] -> Ok []
  | _ -> (
      let canonical = List.map Printer.to_string asts in
      let name = meta_name canonical in
      Result.bind (merged_constraints asts) @@ fun constraints ->
      let mast = meta_ast name constraints in
      let split_all concrete =
        List.fold_left
          (fun acc ast ->
            Result.bind acc (fun specs ->
                Result.map (fun s -> s :: specs) (split_root concrete ast)))
          (Ok []) asts
        |> Result.map List.rev
      in
      let cached =
        match cache with None -> None | Some c -> Ccache.lookup c mast
      in
      match cached with
      | Some concrete -> split_all concrete
      | None -> (
      (* a root set that cannot unify fails once per cache, as a single
         query does *)
      match Option.bind cache (fun c -> Ccache.failure c mast) with
      | Some e -> Error (Unsat e)
      | None -> (
          let meta_repo =
            Repository.create ~name:"env-meta" [ meta_package name asts ]
          in
          let layered = Repository.layered [ meta_repo; repo ] in
          let cctx = Concretizer.make_ctx ~config ?obs ~compilers layered in
          match Backends.solve backend cctx mast with
          | Error e ->
              Option.iter (fun c -> Ccache.store_failure c mast e) cache;
              Error (Unsat e)
          | Ok concrete ->
              Option.iter (fun c -> Ccache.store c mast concrete) cache;
              split_all concrete)))
