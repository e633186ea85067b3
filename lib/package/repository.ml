module Smap = Map.Make (String)

type t = {
  repo_name : string;
  packages : Package.t Smap.t;
  identity : (string, string) Hashtbl.t;
      (* package name -> hex SHA-256 of its identity string; packages are
         immutable, so the memo is exact for the repository's lifetime *)
}

let create ?(name = "builtin") packages =
  let add m (p : Package.t) =
    if Smap.mem p.p_name m then
      invalid_arg
        (Printf.sprintf "repository %s: duplicate package %s" name p.p_name)
    else
      let p = Package.with_source p (name ^ ":" ^ p.p_name) in
      Smap.add p.Package.p_name p m
  in
  {
    repo_name = name;
    packages = List.fold_left add Smap.empty packages;
    identity = Hashtbl.create 64;
  }

let layered repos =
  let name = String.concat "+" (List.map (fun r -> r.repo_name) repos) in
  let packages =
    List.fold_left
      (fun acc r ->
        Smap.union (fun _ high _low -> Some high) acc r.packages)
      Smap.empty repos
  in
  { repo_name = name; packages; identity = Hashtbl.create 64 }

let name t = t.repo_name
let find t pkg = Smap.find_opt pkg t.packages
let find_exn t pkg = Smap.find pkg t.packages
let mem t pkg = Smap.mem pkg t.packages
let package_names t = Smap.bindings t.packages |> List.map fst
let all_packages t = Smap.bindings t.packages |> List.map snd
let count t = Smap.cardinal t.packages

(* only names the repository holds are memoized, so the table stays
   bounded by the package count however many absent names are asked
   about (every environment solve asks about its own meta package) *)
let identity_hash t pkg =
  match Hashtbl.find_opt t.identity pkg with
  | Some h -> h
  | None -> (
      match find t pkg with
      | None -> "absent"
      | Some p ->
          let h = Ospack_hash.Sha256.hex_digest (Package.identity_string p) in
          Hashtbl.add t.identity pkg h;
          h)

(* two-row Levenshtein *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let closest t query =
  let budget = max 2 (String.length query / 3) in
  let best =
    Smap.fold
      (fun name _ acc ->
        let d = edit_distance query name in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ -> if d <= budget then Some (name, d) else acc)
      t.packages None
  in
  Option.map fst best
