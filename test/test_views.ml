(* Views (paper §4.3.1) and extension activation (§4.2). *)

module View = Ospack_views.View
module Extensions = Ospack_views.Extensions
module Vfs = Ospack_vfs.Vfs
module Config = Ospack_config.Config
module Concrete = Ospack_spec.Concrete
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist

let cnode ?(compiler = ("gcc", "4.9.2")) ?(deps = []) ?(provided = []) name
    version =
  {
    Concrete.name;
    version = Version.of_string version;
    compiler = (fst compiler, Version.of_string (snd compiler));
    variants = Concrete.Smap.empty;
    arch = "linux-x86_64";
    deps;
    provided = List.map (fun (v, b) -> (v, Vlist.of_string b)) provided;
  }

let spec ?compiler ?(mpi = None) name version =
  let nodes =
    match mpi with
    | None -> [ cnode ?compiler name version ]
    | Some (mname, mver) ->
        [
          cnode ?compiler name version ~deps:[ mname ];
          cnode ?compiler mname mver ~provided:[ ("mpi", ":3") ];
        ]
  in
  match Concrete.make ~root:name nodes with
  | Ok c -> c
  | Error _ -> failwith "bad spec"

let expand_rules () =
  let s = spec ~mpi:(Some ("openmpi", "1.8.2")) "mpileaks" "1.0" in
  Alcotest.(check string) "package/version/mpi"
    "/opt/mpileaks-1.0-openmpi"
    (View.expand_rule "/opt/${PACKAGE}-${VERSION}-${MPINAME}" s);
  Alcotest.(check string) "compiler variables"
    "/opt/gcc-4.9.2/mpileaks"
    (View.expand_rule "/opt/${COMPILER}-${COMPILER_VERSION}/${PACKAGE}" s);
  Alcotest.(check string) "nompi fallback" "/opt/zlib-nompi"
    (View.expand_rule "/opt/${PACKAGE}-${MPINAME}" (spec "zlib" "1.2.8"));
  Alcotest.(check string) "hash variable expands to 8 chars"
    ("/" ^ Concrete.root_hash s)
    (View.expand_rule "/${HASH}" s);
  Alcotest.(check string) "unknown variable left verbatim" "/x/${NOPE}"
    (View.expand_rule "/x/${NOPE}" s)

let sync vfs ~config ~rules ~installed =
  match View.sync vfs ~config ~rules ~installed with
  | Ok reports -> reports
  | Error e -> Alcotest.failf "View.sync: %s" (Vfs.error_to_string e)

let sync_links () =
  let vfs = Vfs.create () in
  let s1 = spec "mpileaks" "1.0" in
  ignore (Vfs.write_file vfs "/prefix1/bin/mpileaks" "x");
  let reports =
    sync vfs ~config:Config.empty
      ~rules:[ "/views/${PACKAGE}-${VERSION}" ]
      ~installed:[ (s1, "/prefix1") ]
  in
  Alcotest.(check int) "one link" 1 (List.length reports);
  let r = List.hd reports in
  Alcotest.(check string) "link path" "/views/mpileaks-1.0" r.View.lr_link;
  Alcotest.(check string) "target" "/prefix1" r.View.lr_target;
  (* the link actually works on the filesystem *)
  Alcotest.(check bool) "readable through the view" true
    (Vfs.read_file vfs "/views/mpileaks-1.0/bin/mpileaks" = Ok "x")

let conflict_resolution () =
  let vfs = Vfs.create () in
  (* two versions collide on a version-less link: newer wins *)
  let old_s = spec "tool" "1.0" and new_s = spec "tool" "2.0" in
  let reports =
    sync vfs ~config:Config.empty
      ~rules:[ "/views/${PACKAGE}" ]
      ~installed:[ (old_s, "/old"); (new_s, "/new") ]
  in
  let r = List.hd reports in
  Alcotest.(check string) "newer version wins" "/new" r.View.lr_target;
  Alcotest.(check (list string)) "loser recorded" [ "/old" ] r.View.lr_shadowed;
  (* compiler_order overrides the version preference (§4.3.1) *)
  let icc_s = spec ~compiler:("intel", "14.0.3") "tool" "1.0" in
  let cfg = Config.of_assoc [ ("compiler_order", "intel, gcc") ] in
  let reports =
    sync vfs ~config:cfg
      ~rules:[ "/views2/${PACKAGE}" ]
      ~installed:[ (new_s, "/gcc-new"); (icc_s, "/icc-old") ]
  in
  let r = List.hd reports in
  Alcotest.(check string) "site compiler preference wins over version"
    "/icc-old" r.View.lr_target

let three_way_conflict () =
  (* three specs colliding on one link: the winner fold walks a two-deep
     rest list, and the outcome must not depend on insertion order *)
  let a = spec "tool" "1.0" and b = spec "tool" "2.0" and c = spec "tool" "3.0" in
  let run installed =
    let vfs = Vfs.create () in
    List.hd
      (sync vfs ~config:Config.empty
         ~rules:[ "/views/${PACKAGE}" ]
         ~installed)
  in
  let r = run [ (a, "/a"); (b, "/b"); (c, "/c") ] in
  Alcotest.(check string) "newest of three wins" "/c" r.View.lr_target;
  Alcotest.(check (list string)) "both losers recorded" [ "/a"; "/b" ]
    r.View.lr_shadowed;
  let r = run [ (c, "/c"); (a, "/a"); (b, "/b") ] in
  Alcotest.(check string) "order-independent winner" "/c" r.View.lr_target;
  Alcotest.(check (list string)) "order-independent losers" [ "/a"; "/b" ]
    r.View.lr_shadowed

let sync_updates () =
  let vfs = Vfs.create () in
  let v1 = spec "tool" "1.0" in
  ignore
    (sync vfs ~config:Config.empty ~rules:[ "/v/${PACKAGE}" ]
       ~installed:[ (v1, "/p1") ]);
  (* a new install takes over the link on re-sync *)
  let v2 = spec "tool" "2.0" in
  ignore
    (sync vfs ~config:Config.empty ~rules:[ "/v/${PACKAGE}" ]
       ~installed:[ (v1, "/p1"); (v2, "/p2") ]);
  Alcotest.(check (result string (of_pp Vfs.pp_error))) "link moved" (Ok "/p2")
    (Vfs.readlink vfs "/v/tool")

(* a link the filesystem refuses is a typed error, not an exception *)
let refused_links_are_errors () =
  let vfs = Vfs.create () in
  let s = spec "tool" "1.0" in
  ignore (Vfs.write_file vfs "/p/bin/tool" "x");
  ignore (Vfs.write_file vfs "/v/x" "a file where a directory should be");
  (match
     View.sync vfs ~config:Config.empty ~rules:[ "/v/x/${PACKAGE}" ]
       ~installed:[ (s, "/p") ]
   with
  | Error (Vfs.Not_a_directory _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Vfs.error_to_string e)
  | Ok _ -> Alcotest.fail "linked under a regular file");
  ignore (Vfs.write_file vfs "/m/bin/tool" "squatter");
  match View.merge vfs ~config:Config.empty ~view_root:"/m" ~installed:[ (s, "/p") ] with
  | Error (Vfs.Already_exists path) ->
      Alcotest.(check string) "names the path" "/m/bin/tool" path
  | Error e -> Alcotest.failf "wrong error: %s" (Vfs.error_to_string e)
  | Ok _ -> Alcotest.fail "merged over a regular file"

(* --- extensions (§4.2) --- *)

let setup_ext () =
  let vfs = Vfs.create () in
  (* python prefix with its own payload *)
  ignore (Vfs.write_file vfs "/py/bin/python" "interpreter");
  ignore (Vfs.mkdir_p vfs "/py/lib/python2.7/site-packages");
  (* numpy extension prefix *)
  ignore
    (Vfs.write_file vfs "/numpy/lib/python2.7/site-packages/numpy/__init__.py"
       "# numpy");
  ignore
    (Vfs.write_file vfs "/numpy/lib/python2.7/site-packages/extensions.pth"
       "/numpy/lib/python2.7/site-packages/numpy\n");
  vfs

let pth_merge ~rel =
  if Astring.String.is_suffix ~affix:".pth" rel then
    Some Extensions.line_union_merge
  else None

let activate_deactivate () =
  let vfs = setup_ext () in
  (match
     Extensions.activate vfs ~merge:pth_merge ~ext_name:"py-numpy"
       ~ext_prefix:"/numpy" ~target_prefix:"/py" ()
   with
  | Ok rels -> Alcotest.(check int) "two payload files" 2 (List.length rels)
  | Error e -> Alcotest.failf "activate: %s" e);
  (* the module is now visible inside the python prefix, as if installed *)
  Alcotest.(check bool) "module linked in" true
    (Vfs.is_file vfs "/py/lib/python2.7/site-packages/numpy/__init__.py");
  Alcotest.(check (list (pair string string))) "registry"
    [ ("py-numpy", "/numpy") ]
    (Extensions.active vfs ~target_prefix:"/py");
  Alcotest.(check bool) "double activation refused" true
    (Result.is_error
       (Extensions.activate vfs ~merge:pth_merge ~ext_name:"py-numpy"
          ~ext_prefix:"/numpy" ~target_prefix:"/py" ()));
  (* deactivate restores the pristine prefix *)
  (match
     Extensions.deactivate vfs ~ext_name:"py-numpy" ~ext_prefix:"/numpy"
       ~target_prefix:"/py"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deactivate: %s" e);
  Alcotest.(check bool) "links removed" false
    (Vfs.exists vfs "/py/lib/python2.7/site-packages/numpy/__init__.py");
  Alcotest.(check bool) "pth removed" false
    (Vfs.exists vfs "/py/lib/python2.7/site-packages/extensions.pth");
  Alcotest.(check (list (pair string string))) "registry cleared" []
    (Extensions.active vfs ~target_prefix:"/py")

let pth_merging () =
  let vfs = setup_ext () in
  (* a second extension that also ships extensions.pth *)
  ignore
    (Vfs.write_file vfs "/scipy/lib/python2.7/site-packages/scipy/__init__.py"
       "# scipy");
  ignore
    (Vfs.write_file vfs "/scipy/lib/python2.7/site-packages/extensions.pth"
       "/scipy/lib/python2.7/site-packages/scipy\n");
  let act name prefix =
    match
      Extensions.activate vfs ~merge:pth_merge ~ext_name:name
        ~ext_prefix:prefix ~target_prefix:"/py" ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "activate %s: %s" name e
  in
  act "py-numpy" "/numpy";
  act "py-scipy" "/scipy";
  (match Vfs.read_file vfs "/py/lib/python2.7/site-packages/extensions.pth" with
  | Ok content ->
      Alcotest.(check bool) "both lines merged" true
        (Astring.String.is_infix ~affix:"numpy" content
        && Astring.String.is_infix ~affix:"scipy" content)
  | Error _ -> Alcotest.fail "merged pth missing");
  (* deactivating one removes only its lines *)
  (match
     Extensions.deactivate vfs ~ext_name:"py-numpy" ~ext_prefix:"/numpy"
       ~target_prefix:"/py"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deactivate: %s" e);
  match Vfs.read_file vfs "/py/lib/python2.7/site-packages/extensions.pth" with
  | Ok content ->
      Alcotest.(check bool) "scipy line kept" true
        (Astring.String.is_infix ~affix:"scipy" content);
      Alcotest.(check bool) "numpy line gone" false
        (Astring.String.is_infix ~affix:"numpy" content)
  | Error _ -> Alcotest.fail "pth should remain for scipy"

let conflict_rollback () =
  let vfs = setup_ext () in
  (* an extension colliding on a non-mergeable file *)
  ignore (Vfs.write_file vfs "/evil/bin/python" "impostor");
  ignore (Vfs.write_file vfs "/evil/share/doc" "docs");
  (match
     Extensions.activate vfs ~merge:pth_merge ~ext_name:"evil"
       ~ext_prefix:"/evil" ~target_prefix:"/py" ()
   with
  | Ok _ -> Alcotest.fail "conflict expected"
  | Error msg ->
      Alcotest.(check bool) "names the conflicting path" true
        (Astring.String.is_infix ~affix:"bin/python" msg));
  (* rollback: nothing from the failed activation remains *)
  Alcotest.(check bool) "no partial links" false (Vfs.exists vfs "/py/share/doc");
  Alcotest.(check string) "original file intact" "interpreter"
    (Result.value (Vfs.read_file vfs "/py/bin/python") ~default:"?");
  Alcotest.(check (list (pair string string))) "not registered" []
    (Extensions.active vfs ~target_prefix:"/py")

let () =
  Alcotest.run "views"
    [
      ( "views",
        [
          Alcotest.test_case "rule expansion" `Quick expand_rules;
          Alcotest.test_case "link materialization" `Quick sync_links;
          Alcotest.test_case "conflict preference (§4.3.1)" `Quick
            conflict_resolution;
          Alcotest.test_case "three-way conflict" `Quick three_way_conflict;
          Alcotest.test_case "re-sync updates links" `Quick sync_updates;
          Alcotest.test_case "refused links are typed errors" `Quick
            refused_links_are_errors;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "activate/deactivate (§4.2)" `Quick
            activate_deactivate;
          Alcotest.test_case "pth merging" `Quick pth_merging;
          Alcotest.test_case "conflict rolls back" `Quick conflict_rollback;
        ] );
    ]
