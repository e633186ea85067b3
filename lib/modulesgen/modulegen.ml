module Concrete = Ospack_spec.Concrete
module Version = Ospack_version.Version

let env_entries _spec ~prefix =
  [
    ("PATH", prefix ^ "/bin");
    ("MANPATH", prefix ^ "/share/man");
    ("LD_LIBRARY_PATH", prefix ^ "/lib");
    ("PKG_CONFIG_PATH", prefix ^ "/lib/pkgconfig");
    ("CMAKE_PREFIX_PATH", prefix);
  ]

let root_info spec =
  let n = Concrete.root_node spec in
  let cname, cver = n.Concrete.compiler in
  ( n.Concrete.name,
    Version.to_string n.Concrete.version,
    cname,
    Version.to_string cver )

let dotkit spec ~prefix =
  let name, version, cname, cver = root_info spec in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "#c spack\n");
  Buffer.add_string buf
    (Printf.sprintf "#d %s@%s built with %s@%s\n" name version cname cver);
  List.iter
    (fun (var, path) ->
      Buffer.add_string buf (Printf.sprintf "dk_alter %s %s\n" var path))
    (env_entries spec ~prefix);
  Buffer.contents buf

let tcl spec ~prefix =
  let name, version, cname, cver = root_info spec in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "#%Module1.0\n";
  Buffer.add_string buf
    (Printf.sprintf "## %s@%s%%%s@%s (generated by ospack)\n" name version
       cname cver);
  Buffer.add_string buf
    (Printf.sprintf "proc ModulesHelp { } {\n    puts stderr \"%s@%s\"\n}\n"
       name version);
  List.iter
    (fun (var, path) ->
      Buffer.add_string buf (Printf.sprintf "prepend-path %s %s\n" var path))
    (env_entries spec ~prefix);
  Buffer.contents buf

let lmod_hierarchy_path spec =
  let name, version, cname, cver = root_info spec in
  match Concrete.provider spec "mpi" with
  | Some m when m.Concrete.name <> name ->
      Printf.sprintf "%s/%s/%s/%s/%s/%s.lua" cname cver m.Concrete.name
        (Version.to_string m.Concrete.version)
        name version
  | _ -> Printf.sprintf "%s/%s/%s/%s.lua" cname cver name version

let lmod spec ~prefix =
  let name, version, _, _ = root_info spec in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "-- %s@%s (generated by ospack)\n" name version);
  Buffer.add_string buf
    (Printf.sprintf "whatis(\"Name : %s\")\nwhatis(\"Version : %s\")\n" name
       version);
  List.iter
    (fun (var, path) ->
      Buffer.add_string buf
        (Printf.sprintf "prepend_path(\"%s\", \"%s\")\n" var path))
    (env_entries spec ~prefix);
  Buffer.contents buf
