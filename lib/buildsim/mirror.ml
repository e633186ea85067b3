module Vfs = Ospack_vfs.Vfs
module Version = Ospack_version.Version
module Repository = Ospack_package.Repository
module Package = Ospack_package.Package

type t = { vfs : Vfs.t; root : string }

let create vfs ~root = { vfs; root }
let root t = t.root

let archive_rel ~name ~version =
  Printf.sprintf "%s-%s.tar.gz" name (Version.to_string version)

let archive_content ~name ~version =
  Printf.sprintf "source archive: %s %s\n" name (Version.to_string version)

let archive_path t ~name ~version = t.root ^ "/" ^ archive_rel ~name ~version

(* checksums live in a sidecar next to each archive, the way real mirrors
   publish <archive>.md5 files *)
let checksum_path t ~name ~version = archive_path t ~name ~version ^ ".md5"

let ( let* ) = Result.bind

let add t ~name ~version =
  let content = archive_content ~name ~version in
  let* () = Vfs.write_file t.vfs (archive_path t ~name ~version) content in
  Vfs.write_file t.vfs
    (checksum_path t ~name ~version)
    (Digest.to_hex (Digest.string content))

let populate t repo =
  List.fold_left
    (fun count pkg ->
      List.fold_left
        (fun count version ->
          let* count = count in
          let* () = add t ~name:pkg.Package.p_name ~version in
          Ok (count + 1))
        count
        (Package.known_versions pkg))
    (Ok 0)
    (Repository.all_packages repo)

let fetch t ~name ~version =
  let rel = archive_rel ~name ~version in
  match Vfs.read_file t.vfs (archive_path t ~name ~version) with
  | Error _ ->
      Error
        (Printf.sprintf "no archive %s for %s@%s in mirror %s" rel name
           (Version.to_string version) t.root)
  | Ok content -> (
      match Vfs.read_file t.vfs (checksum_path t ~name ~version) with
      | Error _ -> Error (Printf.sprintf "no archive checksum for %s" rel)
      | Ok expected ->
          let actual = Digest.to_hex (Digest.string content) in
          if actual = expected then Ok (content, actual)
          else
            Error
              (Printf.sprintf "checksum mismatch for %s: expected %s, got %s"
                 rel expected actual))
