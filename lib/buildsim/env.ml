module Smap = Map.Make (String)

type t = string Smap.t

let empty = Smap.empty

let of_assoc bindings =
  List.fold_left (fun e (k, v) -> Smap.add k v e) Smap.empty bindings

let get t name = Smap.find_opt name t
let set t name value = Smap.add name value t

let path_list t name =
  match Smap.find_opt name t with
  | None | Some "" -> []
  | Some v -> String.split_on_char ':' v |> List.filter (fun c -> c <> "")

let prepend_path t name dir =
  match path_list t name with
  | [] -> Smap.add name dir t
  | components -> Smap.add name (String.concat ":" (dir :: components)) t

let set_path t name dirs =
  match dirs with
  | [] -> t
  | _ -> Smap.add name (String.concat ":" dirs) t

let for_build ~dep_prefixes ~wrapper_dir ~base =
  let under suffix = List.map (fun p -> p ^ suffix) dep_prefixes in
  let env =
    (* dependency bin dirs go ahead of whatever the base environment had *)
    List.fold_left
      (fun e dir -> prepend_path e "PATH" dir)
      base
      (List.rev (under "/bin"))
  in
  let env = set env "CC" (wrapper_dir ^ "/cc") in
  let env = set env "CXX" (wrapper_dir ^ "/cxx") in
  let env = set env "F77" (wrapper_dir ^ "/f77") in
  let env = set env "FC" (wrapper_dir ^ "/fc") in
  (* library and build-system search paths are rebuilt from the DAG alone:
     inherited values are exactly the contamination §3.5.1 guards against *)
  let env = Smap.remove "LD_LIBRARY_PATH" env in
  let env = set_path env "LD_LIBRARY_PATH" (under "/lib") in
  let env = set_path env "CMAKE_PREFIX_PATH" dep_prefixes in
  let env = set_path env "PKG_CONFIG_PATH" (under "/lib/pkgconfig") in
  env
