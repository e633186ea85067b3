module Vfs = Ospack_vfs.Vfs
module Concrete = Ospack_spec.Concrete
module Ast = Ospack_spec.Ast
module Config = Ospack_config.Config
module Policy = Ospack_config.Policy
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist

type rule = string

let ( let* ) = Result.bind

type link_report = {
  lr_link : string;
  lr_target : string;
  lr_shadowed : string list;
}

let variables spec =
  let n = Concrete.root_node spec in
  let cname, cver = n.Concrete.compiler in
  let mpiname, mpiversion =
    match Concrete.provider spec "mpi" with
    | Some m when m.Concrete.name <> n.Concrete.name ->
        (m.Concrete.name, Version.to_string m.Concrete.version)
    | _ -> ("nompi", "0")
  in
  [
    ("PACKAGE", n.Concrete.name);
    ("VERSION", Version.to_string n.Concrete.version);
    ("COMPILER", cname);
    ("COMPILER_VERSION", Version.to_string cver);
    ("ARCH", n.Concrete.arch);
    ("HASH", Concrete.root_hash spec);
    ("MPINAME", mpiname);
    ("MPIVERSION", mpiversion);
  ]

let expand_rule rule spec =
  let vars = variables spec in
  let buf = Buffer.create (String.length rule) in
  let n = String.length rule in
  let rec go i =
    if i >= n then ()
    else if i + 1 < n && rule.[i] = '$' && rule.[i + 1] = '{' then
      match String.index_from_opt rule (i + 2) '}' with
      | Some close ->
          let var = String.sub rule (i + 2) (close - i - 2) in
          (match List.assoc_opt var vars with
          | Some value -> Buffer.add_string buf value
          | None -> Buffer.add_string buf (String.sub rule i (close - i + 1)));
          go (close + 1)
      | None ->
          Buffer.add_string buf (String.sub rule i (n - i))
    else begin
      Buffer.add_char buf rule.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* Preference key of a spec colliding on one link (§4.3.1): earlier
   compiler_order entry wins, then newer version, newer compiler, hash.
   [order] is [Policy.compiler_order config], parsed once per view. *)
let preference order spec =
  let n = Concrete.root_node spec in
  let cname, cver = n.Concrete.compiler in
  let rec rank i = function
    | [] -> max_int
    | (req : Ast.compiler_req) :: rest ->
        if req.Ast.c_name = cname && Vlist.mem cver req.Ast.c_versions then i
        else rank (i + 1) rest
  in
  (rank 0 order, n.Concrete.version, cver, Concrete.root_hash spec)

(* Negative when key [a] is preferred over key [b]. *)
let compare_preference (ra, va, ca, ha) (rb, vb, cb, hb) =
  if ra <> rb then Int.compare ra rb
  else
    match Version.compare vb va with
    | 0 -> (
        match Version.compare cb ca with 0 -> String.compare ha hb | c -> c)
    | c -> c

(* Each install with its preference key, computed once. *)
let keyed config installed =
  let order = Policy.compiler_order config in
  List.map (fun (spec, prefix) -> (preference order spec, spec, prefix)) installed

type merge_report = {
  mr_linked : int;
  mr_conflicts : (string * string * string) list;
}

let payload_files vfs prefix =
  Vfs.walk vfs prefix
  |> List.filter_map (fun (path, kind) ->
         match kind with
         | Vfs.Dir -> None
         | Vfs.File | Vfs.Symlink ->
             let plen = String.length prefix + 1 in
             let rel = String.sub path plen (String.length path - plen) in
             if String.length rel >= 6 && String.sub rel 0 6 = ".spack" then
               None
             else Some rel)

let merge vfs ~config ~view_root ~installed =
  (* most-preferred first, so winners claim contested paths *)
  let ordered =
    List.stable_sort
      (fun (ka, _, _) (kb, _, _) -> compare_preference ka kb)
      (keyed config installed)
  in
  let owner = Hashtbl.create 64 in
  let linked = ref 0 in
  let conflicts = ref [] in
  let link_one prefix rel =
    match Hashtbl.find_opt owner rel with
    | Some winner ->
        conflicts := (rel, winner, prefix) :: !conflicts;
        Ok ()
    | None ->
        let link = view_root ^ "/" ^ rel in
        (match Vfs.kind_of vfs link with
        | Some Vfs.Symlink -> ignore (Vfs.remove vfs link)
        | _ -> ());
        let* () = Vfs.symlink vfs ~target:(prefix ^ "/" ^ rel) ~link in
        Hashtbl.replace owner rel prefix;
        incr linked;
        Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (_, _, prefix) ->
        List.fold_left
          (fun acc rel ->
            let* () = acc in
            link_one prefix rel)
          acc (payload_files vfs prefix))
      (Ok ()) ordered
  in
  Ok { mr_linked = !linked; mr_conflicts = List.rev !conflicts }

let sync vfs ~config ~rules ~installed =
  (* values are a nonempty list by construction — (first, rest) — so the
     winner fold below needs no unreachable empty case *)
  let by_link = Hashtbl.create 16 in
  let installed = keyed config installed in
  List.iter
    (fun rule ->
      List.iter
        (fun (key, spec, prefix) ->
          let link = expand_rule rule spec in
          let entry =
            match Hashtbl.find_opt by_link link with
            | None -> ((key, prefix), [])
            | Some (first, rest) -> ((key, prefix), first :: rest)
          in
          Hashtbl.replace by_link link entry)
        installed)
    rules;
  Hashtbl.fold
    (fun link (first, rest) acc ->
      let* reports = acc in
      let winner, losers =
        List.fold_left
          (fun (best, shadowed) (key, prefix) ->
            let bkey, bprefix = best in
            if compare_preference key bkey < 0 then
              ((key, prefix), bprefix :: shadowed)
            else (best, prefix :: shadowed))
          (first, []) rest
      in
      let _, target = winner in
      (match Vfs.kind_of vfs link with
      | Some Vfs.Symlink -> ignore (Vfs.remove vfs link)
      | Some _ -> ignore (Vfs.remove vfs ~recursive:true link)
      | None -> ());
      let* () = Vfs.symlink vfs ~target ~link in
      Ok
        ({ lr_link = link; lr_target = target; lr_shadowed = List.sort compare losers }
        :: reports))
    by_link (Ok [])
  |> Result.map (List.sort (fun a b -> String.compare a.lr_link b.lr_link))
