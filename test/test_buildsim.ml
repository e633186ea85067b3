(* The build environment (paper §3.5): isolation, wrapper argv rewriting,
   RPATH enforcement, the dynamic-loader model, and the cost model that
   drives Figs. 10/11. *)

module Env = Ospack_buildsim.Env
module Wrapper = Ospack_buildsim.Wrapper
module Binary = Ospack_buildsim.Binary
module Loader = Ospack_buildsim.Loader
module Builder = Ospack_buildsim.Builder
module Fsmodel = Ospack_buildsim.Fsmodel
module Vfs = Ospack_vfs.Vfs
module Compilers = Ospack_config.Compilers
module Concrete = Ospack_spec.Concrete
module Version = Ospack_version.Version
open Ospack_package.Package
module Build_model = Ospack_package.Build_model

let gcc = Compilers.toolchain "gcc" "4.9.2"
let compilers = Compilers.create [ gcc ]

(* --- environment isolation (§3.5.1) --- *)

let env_isolation () =
  let env =
    Env.for_build
      ~dep_prefixes:[ "/opt/a"; "/opt/b" ]
      ~wrapper_dir:"/w"
      ~base:(Env.of_assoc [ ("PATH", "/usr/bin") ])
  in
  Alcotest.(check (option string)) "CC is the wrapper" (Some "/w/cc")
    (Env.get env "CC");
  Alcotest.(check (option string)) "FC is the wrapper" (Some "/w/fc")
    (Env.get env "FC");
  Alcotest.(check (list string)) "PATH has dep bins first"
    [ "/opt/a/bin"; "/opt/b/bin"; "/usr/bin" ]
    (Env.path_list env "PATH");
  Alcotest.(check (list string)) "LD_LIBRARY_PATH from deps"
    [ "/opt/a/lib"; "/opt/b/lib" ]
    (Env.path_list env "LD_LIBRARY_PATH");
  Alcotest.(check (list string)) "CMAKE_PREFIX_PATH"
    [ "/opt/a"; "/opt/b" ]
    (Env.path_list env "CMAKE_PREFIX_PATH")

let env_paths () =
  let e = Env.empty in
  Alcotest.(check (list string)) "unset is empty" [] (Env.path_list e "X");
  let e = Env.prepend_path e "X" "/b" in
  let e = Env.prepend_path e "X" "/a" in
  Alcotest.(check (list string)) "prepend order" [ "/a"; "/b" ]
    (Env.path_list e "X")

let env_no_deps () =
  (* a leaf package builds in an environment with no dependency paths *)
  let env =
    Env.for_build ~dep_prefixes:[] ~wrapper_dir:"/w"
      ~base:(Env.of_assoc [ ("PATH", "/usr/bin") ])
  in
  Alcotest.(check (option string)) "CC still the wrapper" (Some "/w/cc")
    (Env.get env "CC");
  Alcotest.(check (list string)) "PATH is just the base" [ "/usr/bin" ]
    (Env.path_list env "PATH");
  Alcotest.(check (list string)) "no LD_LIBRARY_PATH" []
    (Env.path_list env "LD_LIBRARY_PATH");
  Alcotest.(check (list string)) "no CMAKE_PREFIX_PATH" []
    (Env.path_list env "CMAKE_PREFIX_PATH")

(* --- wrappers (§3.5.2) --- *)

let wrapper_rewrite () =
  let deps = [ "/opt/libelf"; "/opt/zlib" ] in
  let argv =
    Wrapper.rewrite ~toolchain:gcc ~lang:Wrapper.C ~mode:Wrapper.Compile
      ~dep_prefixes:deps [ "-c"; "foo.c" ]
  in
  Alcotest.(check string) "real driver first" "gcc" (List.hd argv);
  Alcotest.(check bool) "-I injected" true
    (List.mem "/opt/libelf/include" argv);
  Alcotest.(check bool) "no -L when compiling" true
    (not (List.exists (fun a -> a = "-L/opt/libelf/lib") argv));
  Alcotest.(check bool) "original args kept" true
    (List.mem "foo.c" argv);
  let link =
    Wrapper.rewrite ~toolchain:gcc ~lang:Wrapper.Cxx ~mode:Wrapper.Link
      ~dep_prefixes:deps [ "-o"; "out" ]
  in
  Alcotest.(check string) "c++ driver" "g++" (List.hd link);
  Alcotest.(check bool) "-L injected" true (List.mem "-L/opt/zlib/lib" link);
  Alcotest.(check (list string)) "rpaths extracted in order"
    [ "/opt/libelf/lib"; "/opt/zlib/lib" ]
    (Wrapper.rpaths_of_argv link)

let wrapper_rpath_forms () =
  (* the combined -Wl,-rpath,/dir form *)
  Alcotest.(check (list string)) "comma form" [ "/a/lib" ]
    (Wrapper.rpaths_of_argv [ "gcc"; "-Wl,-rpath,/a/lib"; "-o"; "x" ]);
  (* the split -Wl,-rpath -Wl,/dir form some build systems emit *)
  Alcotest.(check (list string)) "split form" [ "/b/lib" ]
    (Wrapper.rpaths_of_argv [ "gcc"; "-Wl,-rpath"; "-Wl,/b/lib"; "-o"; "x" ]);
  (* both forms mixed in one command line, order preserved, no dupes *)
  Alcotest.(check (list string)) "mixed forms in order"
    [ "/a/lib"; "/b/lib" ]
    (Wrapper.rpaths_of_argv
       [
         "gcc"; "-Wl,-rpath,/a/lib"; "-Wl,-rpath"; "-Wl,/b/lib";
         "-Wl,-rpath,/a/lib"; "foo.o";
       ])

(* --- binaries --- *)

let binary_roundtrip () =
  let b =
    Binary.make ~kind:Binary.Lib ~soname:"libcallpath.so"
      ~needed:[ "libdyninst.so"; "libmpi.so" ]
      ~rpaths:[ "/opt/dyninst/lib"; "/opt/mpi/lib" ]
  in
  Alcotest.(check bool) "parse inverts serialize" true
    (Binary.parse (Binary.serialize b) = Ok b);
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Binary.parse "not a binary"));
  Alcotest.(check string) "soname convention" "libfoo.so"
    (Binary.soname_for_package "foo");
  Alcotest.(check string) "lib-prefixed kept" "libelf.so"
    (Binary.soname_for_package "libelf")

let binary_roundtrip_prop =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let name = oneofl [ "liba.so"; "libb.so"; "tool"; "libx-1.so" ] in
        let dir = oneofl [ "/a/lib"; "/opt/x/lib"; "/usr/lib" ] in
        let* kind = oneofl [ Binary.Exe; Binary.Lib ] in
        let* soname = name in
        let* needed = list_size (int_bound 4) name in
        let* rpaths = list_size (int_bound 4) dir in
        return (Binary.make ~kind ~soname ~needed ~rpaths))
  in
  QCheck.Test.make ~name:"binary serialize/parse round-trip" ~count:200 arb
    (fun b -> Binary.parse (Binary.serialize b) = Ok b)

(* --- the loader (§2, §3.5.2) --- *)

let write_binary vfs path b =
  match Vfs.write_file vfs path (Binary.serialize b) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "vfs: %s" (Vfs.error_to_string e)

let loader_search_order () =
  let vfs = Vfs.create () in
  (* the same soname exists in three places *)
  let lib dir =
    write_binary vfs (dir ^ "/libdep.so")
      (Binary.make ~kind:Binary.Lib ~soname:"libdep.so" ~needed:[] ~rpaths:[])
  in
  lib "/rpath/lib";
  lib "/ld/lib";
  lib "/usr/lib";
  let exe rpaths =
    let b =
      Binary.make ~kind:Binary.Exe ~soname:"app" ~needed:[ "libdep.so" ] ~rpaths
    in
    write_binary vfs "/app/bin/app" b
  in
  let resolve env =
    match Loader.resolve vfs ~path:"/app/bin/app" ~env with
    | Ok [ (_, path) ] -> path
    | Ok other -> Alcotest.failf "expected 1 lib, got %d" (List.length other)
    | Error f -> Alcotest.failf "load failed: %s" (Loader.failure_to_string f)
  in
  let ld = Env.of_assoc [ ("LD_LIBRARY_PATH", "/ld/lib") ] in
  exe [ "/rpath/lib" ];
  Alcotest.(check string) "rpath beats LD_LIBRARY_PATH" "/rpath/lib/libdep.so"
    (resolve ld);
  ignore (Vfs.remove vfs "/app/bin/app");
  exe [];
  Alcotest.(check string) "LD_LIBRARY_PATH beats system" "/ld/lib/libdep.so"
    (resolve ld);
  Alcotest.(check string) "system fallback" "/usr/lib/libdep.so"
    (resolve Env.empty)

let loader_transitive_and_missing () =
  let vfs = Vfs.create () in
  write_binary vfs "/opt/b/lib/libb.so"
    (Binary.make ~kind:Binary.Lib ~soname:"libb.so" ~needed:[] ~rpaths:[]);
  write_binary vfs "/opt/a/lib/liba.so"
    (Binary.make ~kind:Binary.Lib ~soname:"liba.so" ~needed:[ "libb.so" ]
       ~rpaths:[ "/opt/b/lib" ]);
  write_binary vfs "/opt/app/bin/app"
    (Binary.make ~kind:Binary.Exe ~soname:"app" ~needed:[ "liba.so" ]
       ~rpaths:[ "/opt/a/lib" ]);
  (match Loader.resolve vfs ~path:"/opt/app/bin/app" ~env:Env.empty with
  | Ok libs ->
      Alcotest.(check int) "transitive closure" 2 (List.length libs);
      Alcotest.(check bool) "libb found via liba's rpath" true
        (List.mem_assoc "libb.so" libs)
  | Error f -> Alcotest.failf "unexpected: %s" (Loader.failure_to_string f));
  (* break the chain: remove libb *)
  ignore (Vfs.remove vfs "/opt/b/lib/libb.so");
  match Loader.resolve vfs ~path:"/opt/app/bin/app" ~env:Env.empty with
  | Ok _ -> Alcotest.fail "should miss libb"
  | Error f ->
      Alcotest.(check string) "missing soname" "libb.so" f.Loader.f_missing;
      Alcotest.(check bool) "searched dirs reported" true
        (List.mem "/opt/b/lib" f.Loader.f_searched)

let loader_circular_needed () =
  (* mutually-needing libraries must not loop the resolver *)
  let vfs = Vfs.create () in
  write_binary vfs "/l/liba.so"
    (Binary.make ~kind:Binary.Lib ~soname:"liba.so" ~needed:[ "libb.so" ]
       ~rpaths:[ "/l" ]);
  write_binary vfs "/l/libb.so"
    (Binary.make ~kind:Binary.Lib ~soname:"libb.so" ~needed:[ "liba.so" ]
       ~rpaths:[ "/l" ]);
  write_binary vfs "/l/app"
    (Binary.make ~kind:Binary.Exe ~soname:"app" ~needed:[ "liba.so" ]
       ~rpaths:[ "/l" ]);
  match Loader.resolve vfs ~path:"/l/app" ~env:Env.empty with
  | Ok libs ->
      Alcotest.(check int) "each resolved once" 2 (List.length libs)
  | Error f -> Alcotest.failf "unexpected: %s" (Loader.failure_to_string f)

let loader_no_needed () =
  (* a static-style executable with an empty NEEDED list always runs *)
  let vfs = Vfs.create () in
  write_binary vfs "/opt/static/bin/tool"
    (Binary.make ~kind:Binary.Exe ~soname:"tool" ~needed:[] ~rpaths:[]);
  (match Loader.resolve vfs ~path:"/opt/static/bin/tool" ~env:Env.empty with
  | Ok libs -> Alcotest.(check int) "closure is empty" 0 (List.length libs)
  | Error f -> Alcotest.failf "unexpected: %s" (Loader.failure_to_string f));
  Alcotest.(check bool) "runs with empty env" true
    (Loader.can_run vfs ~path:"/opt/static/bin/tool" ~env:Env.empty)

(* --- building (§3.5.3) --- *)

let simple_pkg name ~model =
  make_pkg name
    [
      version "1.0";
      build_model model;
      install
        (fun ctx ->
          [ configure [ "--prefix=" ^ ctx.rc_prefix ]; make []; make [ "install" ] ]);
    ]

let concrete_one name =
  match
    Concrete.make ~root:name
      [
        {
          Concrete.name;
          version = Version.of_string "1.0";
          compiler = ("gcc", Version.of_string "4.9.2");
          variants = Concrete.Smap.empty;
          arch = "linux-x86_64";
          deps = [];
          provided = [];
        };
      ]
  with
  | Ok c -> c
  | Error _ -> Alcotest.fail "bad spec"

let run_build ?(use_wrappers = true) ?(fs = Fsmodel.tmpfs) pkg name =
  match
    Builder.build ~vfs:(Vfs.create ()) ~fs ~compilers ~use_wrappers ~mirror:None
      ~stage_root:"/stage" ~spec:(concrete_one name) ~node:name ~pkg
      ~prefix:("/opt/" ^ name)
      ~dep_prefix:(fun _ -> None)
      ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "build failed: %s" (Builder.error_to_string e)

let build_produces_artifacts () =
  let vfs = Vfs.create () in
  let pkg = simple_pkg "widget" ~model:(Build_model.make ()) in
  let r =
    match
      Builder.build ~vfs ~fs:Fsmodel.tmpfs ~compilers ~use_wrappers:true ~mirror:None
        ~stage_root:"/stage" ~spec:(concrete_one "widget") ~node:"widget"
        ~pkg ~prefix:"/opt/widget"
        ~dep_prefix:(fun _ -> None)
      ()
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "build failed: %s" (Builder.error_to_string e)
  in
  Alcotest.(check bool) "library installed" true
    (Vfs.is_file vfs "/opt/widget/lib/libwidget.so");
  Alcotest.(check bool) "executable installed" true
    (Vfs.is_file vfs "/opt/widget/bin/widget");
  Alcotest.(check bool) "header installed" true
    (Vfs.is_file vfs "/opt/widget/include/widget.h");
  Alcotest.(check bool) "log mentions configure" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"./configure" l)
       r.Builder.br_log);
  Alcotest.(check bool) "positive simulated time" true (r.Builder.br_time > 0.0);
  Alcotest.(check bool) "invocations counted" true (r.Builder.br_invocations > 0)

let nfs_slower_than_tmp () =
  let model = Build_model.make ~configure_checks:300 ~source_files:40 () in
  let pkg = simple_pkg "p" ~model in
  let tmp = run_build ~fs:Fsmodel.tmpfs pkg "p" in
  let nfs = run_build ~fs:Fsmodel.nfs pkg "p" in
  Alcotest.(check bool) "NFS slower" true
    (nfs.Builder.br_time > tmp.Builder.br_time);
  let overhead = (nfs.Builder.br_time /. tmp.Builder.br_time -. 1.0) *. 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "NFS overhead %.1f%% within the paper's band" overhead)
    true
    (overhead > 3.0 && overhead < 120.0)

let wrappers_cost_something () =
  let model = Build_model.make ~configure_checks:250 ~source_files:30 () in
  let pkg = simple_pkg "p" ~model in
  let wrapped = run_build ~use_wrappers:true pkg "p" in
  let bare = run_build ~use_wrappers:false pkg "p" in
  let overhead = (wrapped.Builder.br_time /. bare.Builder.br_time -. 1.0) *. 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "wrapper overhead %.1f%% is the paper's ~10%%" overhead)
    true
    (overhead > 1.0 && overhead < 25.0)

(* the paper's claim 2 as an executable property: Spack-built binaries run
   with an empty environment; native builds in nonstandard prefixes don't *)
let rpath_claim () =
  let vfs = Vfs.create () in
  (* dependency first *)
  let dep_pkg = simple_pkg "depx" ~model:(Build_model.make ()) in
  (match
     Builder.build ~vfs ~fs:Fsmodel.tmpfs ~compilers ~use_wrappers:true ~mirror:None
       ~stage_root:"/stage" ~spec:(concrete_one "depx") ~node:"depx"
       ~pkg:dep_pkg ~prefix:"/opt/depx"
       ~dep_prefix:(fun _ -> None)
      ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "dep build failed: %s" (Builder.error_to_string e));
  let spec =
    match
      Concrete.make ~root:"app"
        [
          {
            Concrete.name = "app";
            version = Version.of_string "1.0";
            compiler = ("gcc", Version.of_string "4.9.2");
            variants = Concrete.Smap.empty;
            arch = "linux-x86_64";
            deps = [ "depx" ];
            provided = [];
          };
          {
            Concrete.name = "depx";
            version = Version.of_string "1.0";
            compiler = ("gcc", Version.of_string "4.9.2");
            variants = Concrete.Smap.empty;
            arch = "linux-x86_64";
            deps = [];
            provided = [];
          };
        ]
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "bad spec"
  in
  let app_pkg = simple_pkg "app" ~model:(Build_model.make ()) in
  let build ~use_wrappers prefix =
    match
      Builder.build ~vfs ~fs:Fsmodel.tmpfs ~compilers ~use_wrappers ~mirror:None
        ~stage_root:"/stage" ~spec ~node:"app" ~pkg:app_pkg ~prefix
        ~dep_prefix:(function "depx" -> Some "/opt/depx" | _ -> None)
        ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "app build failed: %s" (Builder.error_to_string e)
  in
  build ~use_wrappers:true "/opt/app-spack";
  build ~use_wrappers:false "/opt/app-native";
  (* Spack-built: runs with NO environment at all *)
  Alcotest.(check bool) "spack-built runs with empty env" true
    (Loader.can_run vfs ~path:"/opt/app-spack/bin/app" ~env:Env.empty);
  (* native build: fails with empty env, works with LD_LIBRARY_PATH *)
  Alcotest.(check bool) "native build needs the env" false
    (Loader.can_run vfs ~path:"/opt/app-native/bin/app" ~env:Env.empty);
  Alcotest.(check bool) "native build works with LD_LIBRARY_PATH" true
    (Loader.can_run vfs ~path:"/opt/app-native/bin/app"
       ~env:(Env.of_assoc [ ("LD_LIBRARY_PATH", "/opt/depx/lib") ]))

let step_details () =
  (* python_setup, Set_env, Install_file, and invocation accounting *)
  let vfs = Vfs.create () in
  let pkg =
    make_pkg "pypkg"
      [
        version "1.0";
        build_model
          (Build_model.make ~configure_checks:10 ~source_files:4
             ~link_steps:1 ());
        install
          (fun ctx ->
            [
              Ospack_package.Build_step.Set_env ("PYTHONDONTWRITEBYTECODE", "1");
              python_setup [ "build" ];
              python_setup [ "install"; "--prefix=" ^ ctx.rc_prefix ];
              Ospack_package.Build_step.Install_file
                { rel = "share/data.txt"; content = "payload" };
              Ospack_package.Build_step.Note "done";
            ]);
      ]
  in
  (match
     Builder.build ~vfs ~fs:Fsmodel.tmpfs ~compilers ~use_wrappers:true ~mirror:None
       ~stage_root:"/stage" ~spec:(concrete_one "pypkg") ~node:"pypkg" ~pkg
       ~prefix:"/opt/pypkg"
       ~dep_prefix:(fun _ -> None)
      ()
   with
  | Ok r ->
      Alcotest.(check bool) "env recorded" true
        (Vfs.is_file vfs "/opt/pypkg/.ospack/env/PYTHONDONTWRITEBYTECODE");
      Alcotest.(check bool) "custom file installed" true
        (Vfs.read_file vfs "/opt/pypkg/share/data.txt" = Ok "payload");
      Alcotest.(check bool) "note in log" true
        (List.exists (fun l -> l = "# done") r.Builder.br_log);
      Alcotest.(check bool) "artifacts from setup.py install" true
        (Vfs.is_file vfs "/opt/pypkg/lib/libpypkg.so")
  | Error e -> Alcotest.failf "build: %s" (Builder.error_to_string e));
  (* invocation accounting for a plain autotools build: probes + compiles
     + links *)
  let model =
    Build_model.make ~configure_checks:10 ~source_files:4 ~link_steps:2 ()
  in
  let plain = simple_pkg "plain" ~model in
  let r = run_build plain "plain" in
  Alcotest.(check int) "invocations = probes + sources + links" (10 + 4 + 2)
    r.Builder.br_invocations

(* the build's payload is exactly the prefix's files, with their bytes,
   in walk order: "lib-extra" sorts before "lib" as a string but after
   it as a directory name, an overwritten file keeps its last bytes, and
   the staging files under the stage root are not part of it *)
let payload_is_the_prefix () =
  let vfs = Vfs.create () in
  let file rel content =
    Ospack_package.Build_step.Install_file { rel; content }
  in
  let pkg =
    make_pkg "paypkg"
      [
        version "1.0";
        install
          (fun ctx ->
            [
              Ospack_package.Build_step.Set_env ("PAYPKG_HOME", ctx.rc_prefix);
              configure [ "--prefix=" ^ ctx.rc_prefix ];
              make [];
              make [ "install" ];
              file "lib-extra/x.txt" "x";
              file "lib/python/a.py" "a";
              file "a.txt" "first";
              file "a/b.txt" "b";
              file "./share//data.txt" "data";
              file "a.txt" "second";
            ]);
      ]
  in
  match
    Builder.build ~vfs ~fs:Fsmodel.tmpfs ~compilers ~use_wrappers:true ~mirror:None
      ~stage_root:"/stage" ~spec:(concrete_one "paypkg") ~node:"paypkg" ~pkg
      ~prefix:"/opt/paypkg"
      ~dep_prefix:(fun _ -> None)
      ()
  with
  | Error e -> Alcotest.failf "build: %s" (Builder.error_to_string e)
  | Ok r ->
      let walked =
        List.filter_map
          (fun (path, kind) ->
            match kind with
            | Vfs.File ->
                let rel =
                  String.sub path (String.length "/opt/paypkg/")
                    (String.length path - String.length "/opt/paypkg/")
                in
                Some (rel, Result.get_ok (Vfs.read_file vfs path))
            | Vfs.Dir | Vfs.Symlink -> None)
          (Vfs.walk vfs "/opt/paypkg")
      in
      Alcotest.(check (list (pair string string))) "payload = walk" walked
        r.Builder.br_payload;
      Alcotest.(check (option string)) "last write wins" (Some "second")
        (List.assoc_opt "a.txt" r.Builder.br_payload);
      Alcotest.(check bool) "set-env file included" true
        (List.mem_assoc ".ospack/env/PAYPKG_HOME" r.Builder.br_payload)

let wrapper_fortran_drivers () =
  let xl = Compilers.toolchain "xl" "12.1" in
  Alcotest.(check string) "f77" "xlf" (Wrapper.driver_name xl Wrapper.F77);
  Alcotest.(check string) "fc" "xlf90" (Wrapper.driver_name xl Wrapper.Fc);
  Alcotest.(check string) "unknown vendor pattern" "weirdcc"
    (Wrapper.driver_name (Compilers.toolchain "weird" "1.0") Wrapper.C)

(* build-only dependencies never end up in NEEDED or RPATH *)
let build_dep_kinds () =
  let vfs = Vfs.create () in
  let dep_pkg name = simple_pkg name ~model:(Build_model.make ()) in
  let one name deps =
    {
      Concrete.name;
      version = Version.of_string "1.0";
      compiler = ("gcc", Version.of_string "4.9.2");
      variants = Concrete.Smap.empty;
      arch = "linux-x86_64";
      deps;
      provided = [];
    }
  in
  (* install the two dependencies *)
  List.iter
    (fun name ->
      match
        Builder.build ~vfs ~fs:Fsmodel.tmpfs ~compilers ~use_wrappers:true ~mirror:None
          ~stage_root:"/stage"
          ~spec:(match Concrete.make ~root:name [ one name [] ] with
                | Ok c -> c
                | Error _ -> assert false)
          ~node:name ~pkg:(dep_pkg name) ~prefix:("/opt/" ^ name)
          ~dep_prefix:(fun _ -> None)
      ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name (Builder.error_to_string e))
    [ "buildtool"; "linklib" ];
  let app_pkg =
    make_pkg "app"
      [
        version "1.0";
        depends_on "buildtool" ~kind:Build;
        depends_on "linklib";
        install
          (fun ctx ->
            [ configure [ "--prefix=" ^ ctx.rc_prefix ]; make [];
              make [ "install" ] ]);
      ]
  in
  let spec =
    match
      Concrete.make ~root:"app"
        [ one "app" [ "buildtool"; "linklib" ]; one "buildtool" [];
          one "linklib" [] ]
    with
    | Ok c -> c
    | Error _ -> assert false
  in
  (match
     Builder.build ~vfs ~fs:Fsmodel.tmpfs ~compilers ~use_wrappers:true ~mirror:None
       ~stage_root:"/stage" ~spec ~node:"app" ~pkg:app_pkg ~prefix:"/opt/app"
       ~dep_prefix:(function
         | "buildtool" -> Some "/opt/buildtool"
         | "linklib" -> Some "/opt/linklib"
         | _ -> None)
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "app: %s" (Builder.error_to_string e));
  match Vfs.read_file vfs "/opt/app/bin/app" with
  | Error _ -> Alcotest.fail "binary missing"
  | Ok content -> (
      match Binary.parse content with
      | Error e -> Alcotest.failf "unparseable binary: %s" e
      | Ok b ->
          Alcotest.(check bool) "link dep in NEEDED" true
            (List.mem "liblinklib.so" b.Binary.b_needed);
          Alcotest.(check bool) "build dep not in NEEDED" false
            (List.mem "libbuildtool.so" b.Binary.b_needed);
          Alcotest.(check bool) "build dep not in RPATH" false
            (List.mem "/opt/buildtool/lib" b.Binary.b_rpaths);
          Alcotest.(check bool) "link dep in RPATH" true
            (List.mem "/opt/linklib/lib" b.Binary.b_rpaths))

let missing_dep_fails () =
  let pkg = simple_pkg "app" ~model:(Build_model.make ()) in
  let spec =
    match
      Concrete.make ~root:"app"
        [
          {
            Concrete.name = "app";
            version = Version.of_string "1.0";
            compiler = ("gcc", Version.of_string "4.9.2");
            variants = Concrete.Smap.empty;
            arch = "linux-x86_64";
            deps = [ "ghost" ];
            provided = [];
          };
          {
            Concrete.name = "ghost";
            version = Version.of_string "1.0";
            compiler = ("gcc", Version.of_string "4.9.2");
            variants = Concrete.Smap.empty;
            arch = "linux-x86_64";
            deps = [];
            provided = [];
          };
        ]
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "bad spec"
  in
  match
    Builder.build ~vfs:(Vfs.create ()) ~fs:Fsmodel.tmpfs ~compilers
      ~use_wrappers:true ~mirror:None ~stage_root:"/stage" ~spec ~node:"app" ~pkg
      ~prefix:"/opt/app"
      ~dep_prefix:(fun _ -> None)
      ()
  with
  | Ok _ -> Alcotest.fail "should fail on uninstalled dependency"
  | Error e ->
      Alcotest.(check bool) "names the dependency" true
        (Astring.String.is_infix ~affix:"ghost" (Builder.error_to_string e))

let () =
  Alcotest.run "buildsim"
    [
      ( "env",
        [
          Alcotest.test_case "isolation (§3.5.1)" `Quick env_isolation;
          Alcotest.test_case "path variables" `Quick env_paths;
          Alcotest.test_case "no dependencies" `Quick env_no_deps;
        ] );
      ( "wrapper",
        [
          Alcotest.test_case "argv rewriting (§3.5.2)" `Quick wrapper_rewrite;
          Alcotest.test_case "rpath flag forms" `Quick wrapper_rpath_forms;
        ] );
      ( "binary",
        [
          Alcotest.test_case "serialization" `Quick binary_roundtrip;
          QCheck_alcotest.to_alcotest binary_roundtrip_prop;
        ] );
      ( "loader",
        [
          Alcotest.test_case "search order" `Quick loader_search_order;
          Alcotest.test_case "transitive + missing" `Quick
            loader_transitive_and_missing;
          Alcotest.test_case "circular NEEDED terminates" `Quick
            loader_circular_needed;
          Alcotest.test_case "empty NEEDED" `Quick loader_no_needed;
        ] );
      ( "builder",
        [
          Alcotest.test_case "artifacts and log" `Quick build_produces_artifacts;
          Alcotest.test_case "NFS slower than tmpfs (Fig. 10)" `Quick
            nfs_slower_than_tmp;
          Alcotest.test_case "wrapper overhead (Fig. 11)" `Quick
            wrappers_cost_something;
          Alcotest.test_case "RPATH makes env irrelevant (claim 2)" `Quick
            rpath_claim;
          Alcotest.test_case "build vs link dependency kinds" `Quick
            build_dep_kinds;
          Alcotest.test_case "step details and accounting" `Quick step_details;
          Alcotest.test_case "payload is the prefix" `Quick payload_is_the_prefix;
          Alcotest.test_case "fortran wrapper drivers" `Quick
            wrapper_fortran_drivers;
          Alcotest.test_case "missing dependency fails" `Quick missing_dep_fails;
        ] );
    ]
