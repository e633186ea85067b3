module Vfs = Ospack_vfs.Vfs
module Concrete = Ospack_spec.Concrete

let dir = ".spack"

let ( let* ) = Result.bind

let write vfs ~prefix ~(spec : Concrete.rendered) ~package_source ~log =
  let base = prefix ^ "/" ^ dir in
  let* () =
    Vfs.write_file vfs (base ^ "/spec") (Concrete.to_string spec.spec ^ "\n")
  in
  let* () = Vfs.write_file vfs (base ^ "/spec.json") (spec.json ^ "\n") in
  let* () =
    Vfs.write_file vfs (base ^ "/build.log") (String.concat "\n" log ^ "\n")
  in
  Vfs.write_file vfs (base ^ "/package.source") (package_source ^ "\n")

let read_line vfs path =
  match Vfs.read_file vfs path with
  | Ok content -> Some (String.trim content)
  | Error _ -> None

let read_spec vfs ~prefix = read_line vfs (prefix ^ "/" ^ dir ^ "/spec")

let read_spec_json vfs ~prefix =
  match Vfs.read_file vfs (prefix ^ "/" ^ dir ^ "/spec.json") with
  | Error e -> Error (Vfs.error_to_string e)
  | Ok content -> (
      match Ospack_json.Json.of_string content with
      | Error e -> Error ("spec.json: " ^ e)
      | Ok j -> Concrete.of_json j)

let read_log vfs ~prefix =
  match Vfs.read_file vfs (prefix ^ "/" ^ dir ^ "/build.log") with
  | Ok content ->
      Some (String.split_on_char '\n' content |> List.filter (fun l -> l <> ""))
  | Error _ -> None

let read_package_source vfs ~prefix =
  read_line vfs (prefix ^ "/" ^ dir ^ "/package.source")

(* ------------------------------------------------------------------ *)
(* install manifests                                                   *)

module Json = Ospack_json.Json

type verify_report = {
  vr_missing : string list;
  vr_modified : string list;
  vr_extra : string list;
}

let report_clean r =
  r.vr_missing = [] && r.vr_modified = [] && r.vr_extra = []

let manifest_path prefix = prefix ^ "/" ^ dir ^ "/manifest.json"

(* payload = every regular file and symlink outside .spack/; symlinks are
   hashed by target so retargeting is detected *)
let md5_hex s = Digest.to_hex (Digest.string s)

(* The one entry -> manifest line function, shared by the prefix walk and
   the buildcache extractor so both render identical manifests. [read]
   yields the file bytes or the link target and is called only for an
   entry that is manifested. *)
let manifest_entry ~rel kind read =
  if String.length rel >= String.length dir
     && String.sub rel 0 (String.length dir) = dir
  then None
  else
    match kind with
    | Vfs.Dir -> None
    | Vfs.File -> Option.map (fun content -> (rel, md5_hex content)) (read ())
    | Vfs.Symlink ->
        Option.map (fun target -> (rel, md5_hex ("link:" ^ target))) (read ())

let payload vfs ~prefix =
  let plen = String.length prefix + 1 in
  Vfs.walk vfs prefix
  |> List.filter_map (fun (path, kind) ->
         let rel = String.sub path plen (String.length path - plen) in
         manifest_entry ~rel kind (fun () ->
             Result.to_option
               (match kind with
               | Vfs.Symlink -> Vfs.readlink vfs path
               | Vfs.File | Vfs.Dir -> Vfs.read_file vfs path)))

let render_manifest payload =
  Json.to_string
    (Json.Obj (List.map (fun (rel, md5) -> (rel, Json.String md5)) payload))
  ^ "\n"

let write_manifest vfs ~prefix payload =
  Vfs.write_file vfs (manifest_path prefix) (render_manifest payload)

let verify_manifest vfs ~prefix =
  match Vfs.read_file vfs (manifest_path prefix) with
  | Error _ -> Error (Printf.sprintf "no manifest under %s" prefix)
  | Ok content -> (
      match Json.of_string content with
      | Error e -> Error ("manifest: " ^ e)
      | Ok (Json.Obj fields) ->
          let manifested =
            List.filter_map
              (fun (rel, v) ->
                Option.map (fun md5 -> (rel, md5)) (Json.get_string v))
              fields
          in
          let current = payload vfs ~prefix in
          let missing, modified =
            List.fold_left
              (fun (missing, modified) (rel, md5) ->
                match List.assoc_opt rel current with
                | None -> (rel :: missing, modified)
                | Some now when now <> md5 -> (missing, rel :: modified)
                | Some _ -> (missing, modified))
              ([], []) manifested
          in
          let extra =
            List.filter_map
              (fun (rel, _) ->
                if List.mem_assoc rel manifested then None else Some rel)
              current
          in
          Ok
            {
              vr_missing = List.rev missing;
              vr_modified = List.rev modified;
              vr_extra = extra;
            }
      | Ok _ -> Error "manifest: expected an object")
