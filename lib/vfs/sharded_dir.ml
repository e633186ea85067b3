
let shard key = if String.length key >= 2 then String.sub key 0 2 else key
let path ~root key = Printf.sprintf "%s/%s/%s.json" root (shard key) key
let write vfs ~root key content = Vfs.write_atomic vfs (path ~root key) content

let remove vfs ~root key =
  let file = path ~root key in
  match Vfs.remove vfs file with
  | Error (Vfs.Not_found _) -> Ok ()
  | Error e -> Error e
  | Ok () -> (
      let dir = Filename.dirname file in
      match Vfs.ls vfs dir with Ok [] -> Vfs.remove vfs dir | _ -> Ok ())

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
let is_shard_name n = String.length n = 2 && String.for_all is_hex n

(* a kill between a write and its rename strands a [.tmp]; listing is
   where every reader converges, so the sweep lives here (removal is not
   a write barrier, so torture counts over writes stay exact) *)
let keys vfs ~root =
  let in_shard shard =
    let dir = root ^ "/" ^ shard in
    match Vfs.ls vfs dir with
    | Error _ -> []
    | Ok names ->
        List.filter_map
          (fun n ->
            if Filename.check_suffix n ".tmp" then (
              ignore (Vfs.remove vfs (dir ^ "/" ^ n));
              None)
            else if Filename.check_suffix n ".json" then
              Some (Filename.chop_suffix n ".json")
            else None)
          names
  in
  match Vfs.ls vfs root with
  | Error _ -> []
  | Ok names ->
      List.filter is_shard_name names
      |> List.concat_map in_shard
      |> List.sort String.compare
