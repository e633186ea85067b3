module Concrete = Ospack_spec.Concrete
module Version = Ospack_version.Version

type scheme =
  | Spack_default
  | Llnl_usr_global
  | Llnl_usr_local
  | Ornl
  | Tacc_lmod

let all_schemes =
  [
    ("LLNL /usr/global/tools", Llnl_usr_global);
    ("LLNL /usr/local/tools", Llnl_usr_local);
    ("ORNL", Ornl);
    ("TACC / Lmod", Tacc_lmod);
    ("Spack default", Spack_default);
  ]

let options_string (n : Concrete.node) =
  let enabled =
    Concrete.Smap.bindings n.Concrete.variants
    |> List.filter_map (fun (v, on) -> if on then Some v else None)
  in
  match enabled with [] -> "" | vs -> "-" ^ String.concat "-" vs

let node_path scheme ~root spec name =
  let n = Concrete.node_exn spec name in
  let cname, cver = n.Concrete.compiler in
  let version = Version.to_string n.Concrete.version in
  let compiler = Printf.sprintf "%s-%s" cname (Version.to_string cver) in
  let build = Concrete.dag_hash spec name in
  let components =
    match scheme with
    | Spack_default ->
        [
          n.Concrete.arch;
          compiler;
          Printf.sprintf "%s-%s%s-%s" name version (options_string n) build;
        ]
    | Llnl_usr_global -> [ n.Concrete.arch; name; version ]
    | Llnl_usr_local ->
        [ Printf.sprintf "%s-%s-%s-%s" name compiler build version ]
    | Ornl -> [ n.Concrete.arch; name; version; build ]
    | Tacc_lmod ->
        let mpi, mpi_version =
          match Concrete.provider spec "mpi" with
          | Some m when m.Concrete.name <> name ->
              (m.Concrete.name, Version.to_string m.Concrete.version)
          | _ -> ("serial", "none")
        in
        [ compiler; mpi; mpi_version; name; version ]
  in
  String.concat "/" (root :: components)

let path scheme ~root spec = node_path scheme ~root spec (Concrete.root spec)
