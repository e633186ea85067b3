module Vfs = Ospack_vfs.Vfs
module Vpath = Ospack_vfs.Vpath

type merge_hook =
  rel:string -> existing:string -> incoming:string -> string option

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let unlines ls = String.concat "\n" ls ^ "\n"

let line_union_merge ~rel:_ ~existing ~incoming =
  let have = lines existing in
  let extra =
    List.filter (fun l -> not (List.mem l have)) (lines incoming)
  in
  Some (unlines (have @ extra))

type error = Refused of string | Io of Vfs.error

let error_to_string = function
  | Refused why -> why
  | Io e -> Vfs.error_to_string e

let registry target_prefix = target_prefix ^ "/.spack/extensions"

let active vfs ~target_prefix =
  match Vfs.read_file vfs (registry target_prefix) with
  | Error _ -> []
  | Ok content ->
      lines content
      |> List.filter_map (fun line ->
             match String.index_opt line ' ' with
             | None -> None
             | Some i ->
                 Some
                   ( String.sub line 0 i,
                     String.sub line (i + 1) (String.length line - i - 1) ))

let write_registry vfs ~target_prefix entries =
  let content =
    match entries with
    | [] -> ""
    | _ ->
        unlines (List.map (fun (n, p) -> n ^ " " ^ p) entries)
  in
  Result.map_error (fun e -> Io e)
    (Vfs.write_file vfs (registry target_prefix) content)

let ( let* ) = Result.bind

let activate vfs ?(merge = fun ~rel:_ -> None) ~ext_name ~ext_prefix
    ~target_prefix () =
  if List.mem_assoc ext_name (active vfs ~target_prefix) then
    Error (Refused (Printf.sprintf "extension %s is already activated" ext_name))
  else begin
    let rels = View.payload_files vfs ext_prefix in
    let created = ref [] in
    let merged = ref [] in
    (* merged : (path, previous state) — a merged path may previously have
       been a plain file or a symlink into another extension's prefix; a
       link must be replaced by a real merged file (never written through,
       which would corrupt the other extension's install) and restored on
       rollback *)
    let rollback () =
      List.iter (fun link -> ignore (Vfs.remove vfs link)) !created;
      List.iter
        (fun (path, previous) ->
          ignore (Vfs.remove vfs path);
          match previous with
          | `File original -> ignore (Vfs.write_file vfs path original)
          | `Link target -> ignore (Vfs.symlink vfs ~target ~link:path))
        !merged
    in
    let rec link_all = function
      | [] -> Ok ()
      | rel :: rest -> (
          let src = Vpath.join ext_prefix rel in
          let dst = Vpath.join target_prefix rel in
          match Vfs.kind_of vfs dst with
          | None -> (
              match Vfs.symlink vfs ~target:src ~link:dst with
              | Ok () ->
                  created := dst :: !created;
                  link_all rest
              | Error e -> Error (Io e))
          | Some kind -> (
              match merge ~rel with
              | None ->
                  Error
                    (Refused
                       (Printf.sprintf "cannot activate %s: file conflict on %s"
                          ext_name rel))
              | Some hook -> (
                  let existing =
                    Result.value (Vfs.read_file vfs dst) ~default:""
                  in
                  let incoming =
                    Result.value (Vfs.read_file vfs src) ~default:""
                  in
                  match hook ~rel ~existing ~incoming with
                  | None ->
                      Error
                        (Refused
                           (Printf.sprintf
                              "cannot activate %s: unmergeable conflict on %s"
                              ext_name rel))
                  | Some content -> (
                      let previous =
                        match kind with
                        | Vfs.Symlink ->
                            let target =
                              Result.value (Vfs.readlink vfs dst) ~default:""
                            in
                            ignore (Vfs.remove vfs dst);
                            `Link target
                        | _ -> `File existing
                      in
                      match Vfs.write_file vfs dst content with
                      | Ok () ->
                          merged := (dst, previous) :: !merged;
                          link_all rest
                      | Error e -> Error (Io e)))))
    in
    (* a registry that cannot be written rolls the links back too:
       activation changes nothing unless it completes *)
    match
      let* () = link_all rels in
      write_registry vfs ~target_prefix
        (active vfs ~target_prefix @ [ (ext_name, ext_prefix) ])
    with
    | Error e ->
        rollback ();
        Error e
    | Ok () -> Ok rels
  end

let deactivate vfs ~ext_name ~ext_prefix ~target_prefix =
  let entries = active vfs ~target_prefix in
  if not (List.mem_assoc ext_name entries) then
    Error (Refused (Printf.sprintf "extension %s is not activated" ext_name))
  else begin
    let rels = View.payload_files vfs ext_prefix in
    let* () =
      List.fold_left
        (fun acc rel ->
          let* () = acc in
          let src = Vpath.join ext_prefix rel in
          let dst = Vpath.join target_prefix rel in
          match Vfs.kind_of vfs dst with
          | Some Vfs.Symlink -> (
              match Vfs.readlink vfs dst with
              | Ok target when Vpath.join (Vpath.dirname dst) target = src ->
                  ignore (Vfs.remove vfs dst);
                  Ok ()
              | _ -> Ok () (* link now owned by someone else *))
          | Some Vfs.File -> (
              (* merged file: remove this extension's lines *)
              match (Vfs.read_file vfs dst, Vfs.read_file vfs src) with
              | Ok existing, Ok incoming ->
                  let mine = lines incoming in
                  let remaining =
                    List.filter (fun l -> not (List.mem l mine)) (lines existing)
                  in
                  let result =
                    if remaining = [] then Vfs.remove vfs dst
                    else Vfs.write_file vfs dst (unlines remaining)
                  in
                  Result.map_error (fun e -> Io e) result
              | _ -> Ok ())
          | _ -> Ok ())
        (Ok ()) rels
    in
    let* () =
      write_registry vfs ~target_prefix
        (List.filter (fun (n, _) -> n <> ext_name) entries)
    in
    Ok rels
  end
