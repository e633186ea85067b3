module Vfs = Ospack_vfs.Vfs
module Vpath = Ospack_vfs.Vpath
module Compilers = Ospack_config.Compilers
module Concrete = Ospack_spec.Concrete
module Ast = Ospack_spec.Ast
module Version = Ospack_version.Version
module Package = Ospack_package.Package
module Build_model = Ospack_package.Build_model
module Build_step = Ospack_package.Build_step
module Obs = Ospack_obs.Obs

type result = {
  br_log : string list;
  br_time : float;
  br_invocations : int;
  br_payload : (string * string) list;
}

(* Typed failures so callers (the installer's accounting, observability
   counters) can classify without string-matching the message. *)
type error =
  | Staging of { node : string; reason : string }
  | Missing_dep of { node : string; dep : string }
  | Step_failed of { node : string; reason : string }

let error_to_string = function
  | Staging { node; reason } -> Printf.sprintf "%s: staging: %s" node reason
  | Missing_dep { node; dep } ->
      Printf.sprintf "%s: dependency %s is not installed" node dep
  | Step_failed { reason; _ } -> reason

(* the calibrated virtual-clock constants (see builder.mli) *)
let probe_cpu_seconds = 0.02
let probe_meta_ops = 6
let link_cpu_seconds = 0.4
let link_meta_ops = 4
let install_meta_ops_per_file = 2
let wrapper_seconds_per_invocation = 0.004

let installed_library ~prefix ~package =
  prefix ^ "/lib/" ^ Binary.soname_for_package package

let installed_executable ~prefix ~package = prefix ^ "/bin/" ^ package

(* Mutable per-build accounting: the virtual clock and the invocation
   counter the wrapper overhead is charged against. Every charge is
   mirrored to the obs sink (same amounts, same order), so enabled
   traces reproduce the cost model exactly while [br_time] — the number
   behind Figs. 10/11 — keeps coming from the local clock alone. *)
type clock = {
  fs : Fsmodel.t;
  use_wrappers : bool;
  obs : Obs.t;
  mutable seconds : float;
  mutable invocations : int;
}

let charge_meta clock ops =
  let dt = float_of_int ops *. clock.fs.Fsmodel.fs_meta_seconds in
  clock.seconds <- clock.seconds +. dt;
  Obs.advance clock.obs dt;
  Obs.count clock.obs "fs.meta_ops" ops

let charge_invocations clock ~count ~cpu_each ~meta_ops_each =
  clock.invocations <- clock.invocations + count;
  clock.seconds <- clock.seconds +. (float_of_int count *. cpu_each);
  Obs.advance clock.obs (float_of_int count *. cpu_each);
  charge_meta clock (count * meta_ops_each);
  if clock.use_wrappers then begin
    clock.seconds <-
      clock.seconds
      +. (float_of_int count *. wrapper_seconds_per_invocation);
    Obs.advance clock.obs
      (float_of_int count *. wrapper_seconds_per_invocation);
    Obs.count clock.obs "wrapper.invocations" count
  end

let probe_phase clock (model : Build_model.t) =
  Obs.span clock.obs ~cat:"build" "build.configure" (fun () ->
      charge_invocations clock ~count:model.Build_model.configure_checks
        ~cpu_each:probe_cpu_seconds ~meta_ops_each:probe_meta_ops)

let compile_phase clock (model : Build_model.t) =
  Obs.span clock.obs ~cat:"build" "build.compile" (fun () ->
      charge_invocations clock ~count:model.Build_model.source_files
        ~cpu_each:model.Build_model.compile_seconds
        ~meta_ops_each:model.Build_model.headers_per_compile);
  Obs.span clock.obs ~cat:"build" "build.link" (fun () ->
      charge_invocations clock ~count:model.Build_model.link_steps
        ~cpu_each:link_cpu_seconds ~meta_ops_each:link_meta_ops)

let install_phase clock (model : Build_model.t) =
  charge_meta clock
    (model.Build_model.install_files * install_meta_ops_per_file)

(* Which of the spec node's dependencies are link dependencies? A spec dep
   matches a package declaration either by name or through a virtual
   interface it provides (mvapich2 satisfies [depends_on "mpi"]). A dep
   whose every matching declaration is build-only stays out of NEEDED and
   RPATH (paper §3.5.2). *)
let is_link_dep (pkg : Package.t) (dep_node : Concrete.node) =
  let kinds =
    List.filter_map
      (fun (d : Package.dep) ->
        let declared = d.Package.d_spec.Ast.root.Ast.name in
        if
          declared = dep_node.Concrete.name
          || List.mem_assoc declared dep_node.Concrete.provided
        then Some d.Package.d_kind
        else None)
      pkg.Package.p_dependencies
  in
  match kinds with
  | [] -> true (* unknown provenance: link conservatively *)
  | ks -> List.exists (fun k -> k = Package.Link) ks

let ( let* ) = Stdlib.Result.bind

let write_file vfs path content =
  Stdlib.Result.map_error
    (fun e -> Printf.sprintf "%s: %s" path (Vfs.error_to_string e))
    (Vfs.write_file vfs path content)

let build ?(obs = Obs.disabled) ~vfs ~fs ~compilers ~use_wrappers ~mirror
    ~stage_root ~spec ~node ~pkg ~prefix ~dep_prefix () =
  (* all write failures below this point are step failures of this node *)
  let write_file vfs path content =
    Stdlib.Result.map_error
      (fun reason -> Step_failed { node; reason })
      (write_file vfs path content)
  in
  (* every file written under the prefix, by prefix-relative path, the
     last write winning: the build's payload, handed to the installer so
     it manifests these bytes without reading the prefix back *)
  let written = Hashtbl.create 8 in
  let root = Vpath.normalize prefix ^ "/" in
  let write_prefix path content =
    let* () = write_file vfs path content in
    let path = Vpath.normalize path in
    if String.starts_with ~prefix:root path then
      Hashtbl.replace written
        (String.sub path (String.length root)
           (String.length path - String.length root))
        content;
    Ok ()
  in
  let node_info = Concrete.node_exn spec node in
  (* every spec dependency must already have an installed prefix *)
  let* deps =
    List.fold_left
      (fun acc dep_name ->
        let* acc = acc in
        match dep_prefix dep_name with
        | Some p -> Ok ((Concrete.node_exn spec dep_name, p) :: acc)
        | None -> Error (Missing_dep { node; dep = dep_name }))
      (Ok []) node_info.Concrete.deps
  in
  let deps = List.rev deps in
  let dep_prefixes = List.map snd deps in
  let link_deps =
    List.filter (fun (dn, _) -> is_link_dep pkg dn) deps
  in
  let link_prefixes = List.map snd link_deps in
  let link_sonames =
    List.map
      (fun ((dn : Concrete.node), _) ->
        Binary.soname_for_package dn.Concrete.name)
      link_deps
  in
  let link_libdirs = List.map (fun p -> p ^ "/lib") link_prefixes in
  let cname, cver = node_info.Concrete.compiler in
  let toolchain =
    match Compilers.find compilers ~name:cname ~version:cver with
    | Some tc -> tc
    | None -> Compilers.toolchain cname (Version.to_string cver)
  in
  let version = node_info.Concrete.version in
  let stage =
    Printf.sprintf "%s/%s-%s" stage_root node (Version.to_string version)
  in
  let wrapper_dir = stage ^ "/wrappers" in
  let log = ref [] in
  let logf fmt = Printf.ksprintf (fun l -> log := l :: !log) fmt in
  logf "==> staging %s@%s in %s (%s)" node (Version.to_string version) stage
    fs.Fsmodel.fs_name;
  (* stage the sources: from the mirror (checksum-verified) when one is
     configured, otherwise straight from upstream *)
  let* () =
    Obs.span obs ~cat:"build" "build.stage" (fun () ->
        match mirror with
        | None ->
            logf "==> fetching %s from upstream"
              (Mirror.archive_rel ~name:node ~version);
            Ok ()
        | Some m -> (
            match Mirror.fetch m ~name:node ~version with
            | Error e -> Error (Staging { node; reason = e })
            | Ok (content, md5) ->
                Obs.count obs "mirror.fetches" 1;
                logf "==> fetched %s from %s (md5 verified: %s)"
                  (Mirror.archive_rel ~name:node ~version)
                  (Mirror.root m) md5;
                write_file vfs
                  (stage ^ "/" ^ Mirror.archive_rel ~name:node ~version)
                  content))
  in
  (* the isolated environment of §3.5.1 *)
  let env =
    Env.for_build ~dep_prefixes ~wrapper_dir
      ~base:(Env.of_assoc [ ("PATH", "/usr/bin:/bin") ])
  in
  let* () =
    if not use_wrappers then Ok ()
    else
      List.fold_left
        (fun acc (wrapper, lang) ->
          let* () = acc in
          let driver = Wrapper.driver_name toolchain lang in
          write_file vfs
            (wrapper_dir ^ "/" ^ wrapper)
            (Printf.sprintf "#!/bin/sh\n# ospack wrapper\nexec %s \"$@\"\n"
               driver))
        (Ok ())
        [ ("cc", Wrapper.C); ("cxx", Wrapper.Cxx); ("f77", Wrapper.F77);
          ("fc", Wrapper.Fc) ]
  in
  (match Env.get env "CC" with
  | Some cc -> logf "==> CC=%s (-> %s)" cc (Wrapper.driver_name toolchain Wrapper.C)
  | None -> ());
  let clock = { fs; use_wrappers; obs; seconds = 0.0; invocations = 0 } in
  let model = pkg.Package.p_build_model in
  (* binaries carry NEEDED for the link deps; only wrapper builds burn in
     RPATHs (the paper's claim 2 distinction) *)
  let lib_binary =
    Binary.make ~kind:Binary.Lib
      ~soname:(Binary.soname_for_package node)
      ~needed:link_sonames
      ~rpaths:(if use_wrappers then link_libdirs else [])
  in
  let exe_binary =
    Binary.make ~kind:Binary.Exe ~soname:node ~needed:link_sonames
      ~rpaths:(if use_wrappers then (prefix ^ "/lib") :: link_libdirs else [])
  in
  (* wrapper builds burn one RPATH entry per link libdir into the
     library plus prefix/lib + link libdirs into the executable *)
  let rpath_rewrites =
    if use_wrappers then (2 * List.length link_libdirs) + 1 else 0
  in
  let install_artifacts () =
    Obs.span obs ~cat:"build" "build.install" (fun () ->
        install_phase clock model;
        Obs.count obs "build.rpath_rewrites" rpath_rewrites;
        let* () =
          write_prefix
            (installed_library ~prefix ~package:node)
            (Binary.serialize lib_binary)
        in
        let* () =
          write_prefix
            (installed_executable ~prefix ~package:node)
            (Binary.serialize exe_binary)
        in
        write_prefix
          (prefix ^ "/include/" ^ node ^ ".h")
          (Printf.sprintf "/* %s %s */\n" node (Version.to_string version)))
  in
  let log_sample_compile () =
    if use_wrappers then
      let compile =
        Wrapper.rewrite ~toolchain ~lang:Wrapper.C ~mode:Wrapper.Compile
          ~dep_prefixes [ "-c"; node ^ ".c" ]
      in
      let link =
        Wrapper.rewrite ~toolchain ~lang:Wrapper.C ~mode:Wrapper.Link
          ~dep_prefixes:link_prefixes
          [ "-o"; node ]
      in
      List.iter (fun argv -> logf "    %s" (String.concat " " argv))
        [ compile; link ]
  in
  let run_step step =
    match (step : Build_step.t) with
    | Build_step.Configure args ->
        logf "==> ./configure %s" (String.concat " " args);
        probe_phase clock model;
        Ok ()
    | Build_step.Cmake args ->
        logf "==> cmake %s" (String.concat " " args);
        probe_phase clock model;
        Ok ()
    | Build_step.Make args when List.mem "install" args ->
        logf "==> make %s" (String.concat " " args);
        install_artifacts ()
    | Build_step.Make args ->
        logf "==> make %s" (String.concat " " args);
        log_sample_compile ();
        compile_phase clock model;
        Ok ()
    | Build_step.Python_setup args ->
        logf "==> python setup.py %s" (String.concat " " args);
        let* () =
          if List.mem "build" args then begin
            probe_phase clock model;
            compile_phase clock model;
            Ok ()
          end
          else Ok ()
        in
        if List.exists (fun a -> a = "install") args then install_artifacts ()
        else Ok ()
    | Build_step.Apply_patch file ->
        logf "==> patch -p1 < %s" file;
        Obs.span obs ~cat:"build" "build.patch" (fun () ->
            charge_meta clock 2);
        Ok ()
    | Build_step.Install_file { rel; content } ->
        logf "==> install %s" rel;
        charge_meta clock install_meta_ops_per_file;
        write_prefix (prefix ^ "/" ^ rel) content
    | Build_step.Set_env (name, value) ->
        logf "==> export %s=%s" name value;
        write_prefix (prefix ^ "/.ospack/env/" ^ name) value
    | Build_step.Note text ->
        logf "# %s" text;
        Ok ()
  in
  (* staging-time patches (§3.2.4), then the dispatched recipe *)
  let* () =
    List.fold_left
      (fun acc patch ->
        let* () = acc in
        run_step (Build_step.Apply_patch patch))
      (Ok ())
      (Package.patches_for pkg spec)
  in
  let recipe = Package.recipe_for pkg spec in
  let ctx =
    {
      Package.rc_spec = spec;
      rc_prefix = prefix;
      rc_dep_prefix =
        (fun name ->
          match dep_prefix name with
          | Some p -> p
          | None -> raise Not_found);
    }
  in
  let* () =
    List.fold_left
      (fun acc step ->
        let* () = acc in
        run_step step)
      (Ok ()) (recipe ctx)
  in
  logf "==> %s@%s installed to %s (%.1f simulated s, %d compiler invocations)"
    node (Version.to_string version) prefix clock.seconds clock.invocations;
  (* [Vfs.walk] order: depth-first, names sorted within a directory *)
  let payload =
    Hashtbl.fold
      (fun rel content acc -> (String.split_on_char '/' rel, (rel, content)) :: acc)
      written []
    |> List.sort (fun (a, _) (b, _) -> List.compare String.compare a b)
    |> List.map snd
  in
  Ok
    {
      br_log = List.rev !log;
      br_time = clock.seconds;
      br_invocations = clock.invocations;
      br_payload = payload;
    }
