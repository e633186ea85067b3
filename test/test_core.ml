(* End-to-end tests of the facade: the spack-command workflows of the
   paper's use cases (§4), over the built-in universe. *)

module Context = Ospack.Context
module Concrete = Ospack_spec.Concrete
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Vfs = Ospack_vfs.Vfs
module Loader = Ospack_buildsim.Loader
module Env = Ospack_buildsim.Env

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" e

let install_find_uninstall () =
  let ctx = Context.create () in
  let report = ok (Ospack.install ctx "mpileaks ^mvapich2@1.9") in
  Alcotest.(check int) "whole stack installed"
    (Concrete.node_count report.Ospack.ir_spec)
    (List.length report.Ospack.ir_outcomes);
  (* find with abstract queries *)
  Alcotest.(check int) "find all" 7 (List.length (ok (Ospack.find ctx ())));
  Alcotest.(check int) "find by virtual" 1
    (List.length (ok (Ospack.find ctx ~query:"mpileaks ^mpi@2:" ())));
  Alcotest.(check int) "find misses" 0
    (List.length (ok (Ospack.find ctx ~query:"mpileaks %intel" ())));
  (* uninstalling a dependency is refused while the root needs it *)
  (match Ospack.uninstall ctx "libelf" with
  | Ok _ -> Alcotest.fail "must refuse"
  | Error msg ->
      Alcotest.(check bool) "says who needs it" true
        (Astring.String.is_infix ~affix:"needed by" msg));
  (* the root can go *)
  let removed = ok (Ospack.uninstall ctx "mpileaks") in
  Alcotest.(check string) "removed the root" "mpileaks"
    (Concrete.root removed.Database.r_spec);
  Alcotest.(check int) "six remain" 6 (List.length (ok (Ospack.find ctx ())))

let spec_reuse_check () =
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "mpileaks ^mvapich2"));
  (* §4.1: a second configuration coexists; shared sub-DAGs are reused *)
  let second = ok (Ospack.install ctx "mpileaks ^openmpi") in
  let reused =
    List.filter (fun o -> o.Installer.o_reused) second.Ospack.ir_outcomes
  in
  Alcotest.(check bool) "sub-DAG reuse across MPIs (Fig. 9)" true
    (List.length reused >= 3);
  let all = ok (Ospack.find ctx ()) in
  let mpileaks_installs =
    List.filter (fun r -> Concrete.root r.Database.r_spec = "mpileaks") all
  in
  Alcotest.(check int) "two coexisting mpileaks" 2
    (List.length mpileaks_installs)

let info_and_lists () =
  let ctx = Context.create () in
  let text = ok (Ospack.info ctx "mpileaks") in
  Alcotest.(check bool) "description shown" true
    (Astring.String.is_infix ~affix:"leaked MPI" text);
  Alcotest.(check bool) "deps shown" true
    (Astring.String.is_infix ~affix:"callpath" text);
  Alcotest.(check bool) "unknown package" true
    (Result.is_error (Ospack.info ctx "zzz"));
  Alcotest.(check int) "list filter" 1
    (List.length (Ospack.list_packages ctx ~substring:"mpileaks" ()));
  Alcotest.(check bool) "compilers render" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"xl@12.1" l)
       (Ospack.compiler_list ctx));
  let tree = ok (Ospack.graph_tree ctx "dyninst") in
  Alcotest.(check bool) "tree shows deps" true
    (Astring.String.is_infix ~affix:"libdwarf" tree);
  let dot = ok (Ospack.graph_dot ctx "dyninst") in
  Alcotest.(check bool) "dot output" true
    (Astring.String.is_infix ~affix:"digraph" dot)

let providers_cmd () =
  let ctx = Context.create () in
  let entries = ok (Ospack.providers ctx "mpi@2:") in
  Alcotest.(check bool) "several providers" true (List.length entries >= 3);
  Alcotest.(check bool) "not a virtual" true
    (Result.is_error (Ospack.providers ctx "libelf"))

let modules_and_views () =
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "libdwarf"));
  let paths = ok (Ospack.generate_modules ctx `Tcl) in
  Alcotest.(check int) "one module per install" 2 (List.length paths);
  List.iter
    (fun p ->
      match Vfs.read_file ctx.Context.vfs p with
      | Ok content ->
          Alcotest.(check bool) "tcl magic" true
            (Astring.String.is_infix ~affix:"#%Module1.0" content)
      | Error _ -> Alcotest.failf "module file %s missing" p)
    paths;
  ignore (ok (Ospack.generate_modules ctx `Lmod));
  let reports = ok (Ospack.view ctx ~rules:[ "/opt/v/${PACKAGE}-${VERSION}" ]) in
  Alcotest.(check int) "two links" 2 (List.length reports);
  Alcotest.(check bool) "link resolves into the store" true
    (Vfs.is_dir ctx.Context.vfs "/opt/v/libdwarf-20130729")

let python_extensions () =
  (* the §4.2 workflow end to end: install python + two extensions,
     activate, check merged visibility, deactivate *)
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "py-numpy"));
  ignore (ok (Ospack.install ctx "py-six"));
  let linked = ok (Ospack.activate ctx "py-numpy") in
  Alcotest.(check bool) "numpy files linked" true (List.length linked >= 2);
  ignore (ok (Ospack.activate ctx "py-six"));
  let python =
    match ok (Ospack.find ctx ~query:"python" ()) with
    | [ r ] -> r.Database.r_prefix
    | rs -> Alcotest.failf "expected one python, got %d" (List.length rs)
  in
  let pth = python ^ "/" ^ Ospack_repo.Pkgs_python.pth_file in
  (match Vfs.read_file ctx.Context.vfs pth with
  | Ok content ->
      Alcotest.(check bool) "merged pth lists both" true
        (Astring.String.is_infix ~affix:"numpy" content
        && Astring.String.is_infix ~affix:"six" content)
  | Error _ -> Alcotest.fail "pth missing after activation");
  Alcotest.(check bool) "double-activate refused" true
    (Result.is_error (Ospack.activate ctx "py-numpy"));
  ignore (ok (Ospack.deactivate ctx "py-numpy"));
  (match Vfs.read_file ctx.Context.vfs pth with
  | Ok content ->
      Alcotest.(check bool) "numpy lines removed" false
        (Astring.String.is_infix ~affix:"numpy/" content)
  | Error _ -> Alcotest.fail "pth should remain for py-six");
  Alcotest.(check bool) "non-extension refused" true
    (Result.is_error (Ospack.activate ctx "python"))

let reproduce_from_provenance () =
  let ctx = Context.create () in
  let first = ok (Ospack.install ctx "dyninst@8.1.2") in
  let prefix =
    (List.nth first.Ospack.ir_outcomes
       (List.length first.Ospack.ir_outcomes - 1))
      .Installer.o_record.Database.r_prefix
  in
  (* §3.4.3: rebuild from the stored spec — identical hash even though it
     re-runs the whole pipeline *)
  let again = ok (Ospack.reproduce ctx ~prefix) in
  Alcotest.(check string) "identical configuration"
    (Concrete.root_hash first.Ospack.ir_spec)
    (Concrete.root_hash again.Ospack.ir_spec);
  Alcotest.(check bool) "fully reused" true
    (List.for_all (fun o -> o.Installer.o_reused) again.Ospack.ir_outcomes)

let rpath_end_to_end () =
  (* claim 2 of the paper on a full installed stack *)
  let ctx = Context.create () in
  let report = ok (Ospack.install ctx "callpath") in
  let root_prefix =
    (List.nth report.Ospack.ir_outcomes
       (List.length report.Ospack.ir_outcomes - 1))
      .Installer.o_record.Database.r_prefix
  in
  Alcotest.(check bool) "installed binary runs with empty environment" true
    (Loader.can_run ctx.Context.vfs
       ~path:(root_prefix ^ "/bin/callpath")
       ~env:Env.empty)

let site_repository () =
  (* §4.3.2: a site layer shadows a built-in package *)
  let base = Context.create () in
  let site_pkg =
    Ospack_package.Package.(
      make_pkg "libelf" [ version "9.9"; ])
  in
  let ctx = Context.with_site_packages base [ site_pkg ] in
  let c = ok (Ospack.spec ctx "libelf") in
  Alcotest.(check string) "site version wins" "9.9"
    (Ospack_version.Version.to_string
       (Concrete.root_node c).Concrete.version);
  (* the rest of the universe is still visible *)
  ignore (ok (Ospack.spec ctx "mpileaks"))

let clauses_backend_install () =
  let ctx = Context.create () in
  (* an empty provider preference makes greedy pick bgq-mpi (alphabetical),
     which conflicts on linux; the clause backend recovers *)
  let bare = Context.create ~config:(Ospack_config.Config.of_assoc []) () in
  (match Ospack.install bare "gerris" with
  | Ok _ -> () (* if greedy succeeded, fine — provider order may save it *)
  | Error _ ->
      let clauses =
        Context.create ~config:(Ospack_config.Config.of_assoc [])
          ~backend:Ospack_concretize.Backends.Clauses ()
      in
      ignore (ok (Ospack.install clauses "gerris")));
  (* with the default site config greedy just works *)
  ignore (ok (Ospack.install ctx "gerris"))

let install_rejects_zero_jobs () =
  let ctx = Context.create () in
  (match Ospack.install ~jobs:0 ctx "libelf" with
  | Ok _ -> Alcotest.fail "-j 0 must not install"
  | Error e ->
      Alcotest.(check string) "typed error"
        "install: jobs must be >= 1 (got 0)" e);
  Alcotest.(check int) "nothing installed" 0
    (Database.count (Installer.database ctx.Context.installer))

let hash_queries () =
  let ctx = Context.create () in
  let report = ok (Ospack.install ctx "mpileaks ^mvapich2") in
  let root_hash = Concrete.root_hash report.Ospack.ir_spec in
  let short = String.sub root_hash 0 4 in
  (* name/hashprefix *)
  (match ok (Ospack.find ctx ~query:("mpileaks/" ^ short) ()) with
  | [ r ] -> Alcotest.(check string) "right record" root_hash r.Database.r_hash
  | rs -> Alcotest.failf "expected 1, got %d" (List.length rs));
  (* bare /hashprefix *)
  (match ok (Ospack.find ctx ~query:("/" ^ short) ()) with
  | [ r ] -> Alcotest.(check string) "bare hash" root_hash r.Database.r_hash
  | rs -> Alcotest.failf "expected 1, got %d" (List.length rs));
  Alcotest.(check int) "no match" 0
    (List.length (ok (Ospack.find ctx ~query:"/zzzzzzzz" ())));
  Alcotest.(check bool) "empty hash rejected" true
    (Result.is_error (Ospack.find ctx ~query:"mpileaks/" ()));
  (* uninstall by hash works through the same query path *)
  let removed = ok (Ospack.uninstall ctx ("/" ^ short)) in
  Alcotest.(check string) "uninstalled by hash" root_hash
    removed.Database.r_hash

let merged_view () =
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "libdwarf"));
  ignore (ok (Ospack.install ctx "libdwarf@20130207"));
  let report = ok (Ospack.view_merge ctx ~view_root:"/opt/merged") in
  Alcotest.(check bool) "files linked" true
    (report.Ospack_views.View.mr_linked > 0);
  (* both installs ship bin/libdwarf etc. — collisions are resolved and
     reported, newer version wins *)
  Alcotest.(check bool) "conflicts reported" true
    (report.Ospack_views.View.mr_conflicts <> []);
  (match Vfs.resolve ctx.Context.vfs "/opt/merged/bin/libdwarf" with
  | Ok path ->
      Alcotest.(check bool) "newer version owns the merged path" true
        (Astring.String.is_infix ~affix:"20130729" path)
  | Error _ -> Alcotest.fail "merged bin missing");
  Alcotest.(check bool) "merged lib present" true
    (Vfs.exists ctx.Context.vfs "/opt/merged/lib/liblibdwarf.so"
    || Vfs.exists ctx.Context.vfs "/opt/merged/lib/libdwarf.so")

let external_workflow () =
  (* §4.4 via the facade: vendor MPI declared in site config *)
  let config =
    Ospack_config.Config.layer
      [
        Ospack_config.Config.of_assoc
          [
            ( "externals.mvapich2",
              "mvapich2@2.0 | /opt/vendor/mvapich2-2.0" );
          ];
        Ospack_repo.Universe.default_config;
      ]
  in
  let ctx = Context.create ~config () in
  let report = ok (Ospack.install ctx "mpileaks") in
  let mpi =
    List.find
      (fun o ->
        Concrete.root o.Installer.o_record.Database.r_spec = "mvapich2")
      report.Ospack.ir_outcomes
  in
  Alcotest.(check bool) "vendor mpi used" true
    mpi.Installer.o_record.Database.r_external;
  Alcotest.(check string) "vendor prefix" "/opt/vendor/mvapich2-2.0"
    mpi.Installer.o_record.Database.r_prefix

let garbage_collect () =
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "mpileaks ^mvapich2"));
  ignore (ok (Ospack.install ctx "libdwarf"));
  let before = List.length (ok (Ospack.find ctx ())) in
  (* uninstall the mpileaks root: its whole dependency chain becomes
     garbage except what libdwarf still needs *)
  ignore (ok (Ospack.uninstall ctx "mpileaks"));
  let removed = ok (Ospack.gc ctx) in
  Alcotest.(check bool) "something collected" true (List.length removed >= 3);
  let remaining = ok (Ospack.find ctx ()) in
  (* libdwarf (explicit) and its libelf dependency survive *)
  Alcotest.(check bool) "explicit root kept" true
    (List.exists
       (fun r -> Concrete.root r.Database.r_spec = "libdwarf")
       remaining);
  Alcotest.(check bool) "needed dep kept" true
    (List.exists
       (fun r -> Concrete.root r.Database.r_spec = "libelf")
       remaining);
  Alcotest.(check bool) "garbage gone" true
    (not
       (List.exists
          (fun r -> Concrete.root r.Database.r_spec = "mvapich2")
          remaining));
  Alcotest.(check bool) "store shrank" true
    (List.length remaining < before);
  (* gc again: nothing left to collect *)
  Alcotest.(check int) "idempotent" 0 (List.length (ok (Ospack.gc ctx)))

let buildcache_workflow () =
  (* push to a cache, wipe the store, reinstall from cache *)
  let ctx = Context.create ~cache_root:"/ospack/buildcache" () in
  ignore (ok (Ospack.install ctx "libdwarf"));
  Alcotest.(check int) "entries pushed" 2 (ok (Ospack.buildcache_push ctx));
  ignore (ok (Ospack.uninstall ctx "libdwarf"));
  ignore (ok (Ospack.gc ctx));
  Alcotest.(check int) "store empty" 0 (List.length (ok (Ospack.find ctx ())));
  let report = ok (Ospack.install ctx "libdwarf") in
  Alcotest.(check bool) "reinstall came from cache" true
    (List.for_all
       (fun o -> o.Installer.o_cached)
       report.Ospack.Commands.ir_outcomes);
  (* a context without a cache refuses the push *)
  let plain = Context.create () in
  Alcotest.(check bool) "push without cache errors" true
    (Result.is_error (Ospack.buildcache_push plain))

let spec_diff () =
  let ctx = Context.create () in
  Alcotest.(check (result (list string) string)) "identical specs" (Ok [])
    (Ospack.diff ctx "mpileaks" "mpileaks");
  let lines = ok (Ospack.diff ctx "mpileaks ^mvapich2@1.9" "mpileaks ^openmpi") in
  Alcotest.(check bool) "provider difference reported" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"only in" l)
       lines);
  let lines = ok (Ospack.diff ctx "mpileaks" "mpileaks %intel") in
  Alcotest.(check bool) "compiler difference reported" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"compiler" l)
       lines);
  let lines = ok (Ospack.diff ctx "mpileaks +debug" "mpileaks ~debug") in
  Alcotest.(check bool) "variant difference reported" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"variant" l)
       lines);
  Alcotest.(check bool) "unknown package still errors" true
    (Result.is_error (Ospack.diff ctx "mpileaks" "zzznope"))

let extensions_listing () =
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "py-numpy"));
  ignore (ok (Ospack.install ctx "py-six"));
  let exts = ok (Ospack.extensions_of ctx "python") in
  let names =
    List.map (fun (r, _) -> Concrete.root r.Database.r_spec) exts
    |> List.sort compare
  in
  Alcotest.(check (list string)) "extensions listed"
    [ "py-numpy"; "py-setuptools"; "py-six" ]
    names;
  Alcotest.(check bool) "none active yet" true
    (List.for_all (fun (_, active) -> not active) exts);
  ignore (ok (Ospack.activate ctx "py-numpy"));
  let exts = ok (Ospack.extensions_of ctx "python") in
  List.iter
    (fun (r, active) ->
      let name = Concrete.root r.Database.r_spec in
      Alcotest.(check bool) (name ^ " activation state")
        (name = "py-numpy") active)
    exts;
  Alcotest.(check bool) "non-installed extendee errors" true
    (Result.is_error (Ospack.extensions_of ctx "libelf@9.9"))

let install_reuses_satisfying () =
  (* §3.2.3: "Spack will use the previously-built installation instead of
     building a new one" *)
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "libelf@0.8.12"));
  (* an open range is satisfied by the 0.8.12 install, even though fresh
     concretization would pick 0.8.13 *)
  let report = ok (Ospack.install ctx "libelf@0.8:") in
  Alcotest.(check string) "older satisfying install reused" "0.8.12"
    (Ospack_version.Version.to_string
       (Concrete.root_node report.Ospack.Commands.ir_spec).Concrete.version);
  Alcotest.(check bool) "nothing rebuilt" true
    (List.for_all
       (fun o -> o.Installer.o_reused)
       report.Ospack.Commands.ir_outcomes);
  (* ~fresh forces a new concretization: 0.8.13 appears alongside *)
  let report = ok (Ospack.install ~fresh:true ctx "libelf@0.8:") in
  Alcotest.(check string) "fresh concretization picks newest" "0.8.13"
    (Ospack_version.Version.to_string
       (Concrete.root_node report.Ospack.Commands.ir_spec).Concrete.version);
  Alcotest.(check int) "both coexist" 2
    (List.length (ok (Ospack.find ctx ~query:"libelf" ())));
  (* with both installed, an ambiguous request reuses the newest *)
  let report = ok (Ospack.install ctx "libelf") in
  Alcotest.(check string) "newest satisfying wins" "0.8.13"
    (Ospack_version.Version.to_string
       (Concrete.root_node report.Ospack.Commands.ir_spec).Concrete.version)

let r_extensions () =
  (* §4.2's closing remark: the extension model works for R/Ruby/Lua too *)
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "r-ggplot2"));
  ignore (ok (Ospack.install ctx "r-matrix"));
  ignore (ok (Ospack.activate ctx "r-ggplot2"));
  ignore (ok (Ospack.activate ctx "r-matrix"));
  let r_prefix =
    match ok (Ospack.find ctx ~query:"r" ()) with
    | [ rec_ ] -> rec_.Database.r_prefix
    | rs -> Alcotest.failf "expected one r, got %d" (List.length rs)
  in
  Alcotest.(check bool) "ggplot2 visible inside R" true
    (Vfs.is_file ctx.Context.vfs
       (r_prefix ^ "/" ^ Ospack_repo.Pkgs_lang.r_site_library
      ^ "/ggplot2/index"));
  let exts = ok (Ospack.extensions_of ctx "r") in
  Alcotest.(check int) "two active extensions" 2
    (List.length (List.filter snd exts));
  ignore (ok (Ospack.deactivate ctx "r-ggplot2"));
  Alcotest.(check bool) "deactivation removes it" false
    (Vfs.exists ctx.Context.vfs
       (r_prefix ^ "/" ^ Ospack_repo.Pkgs_lang.r_site_library
      ^ "/ggplot2/index"))

let verify_integrity () =
  (* spack verify: manifests detect tampering in installed prefixes *)
  let ctx = Context.create () in
  ignore (ok (Ospack.install ctx "libdwarf"));
  let reports = ok (Ospack.verify ctx ()) in
  Alcotest.(check int) "one report per install" 2 (List.length reports);
  Alcotest.(check bool) "freshly installed trees are clean" true
    (List.for_all
       (fun (_, r) -> Ospack_store.Provenance.report_clean r)
       reports);
  (* tamper: modify one file, delete another, add a stray one *)
  let prefix =
    (List.hd (ok (Ospack.find ctx ~query:"libdwarf" ()))).Database.r_prefix
  in
  ignore (Vfs.write_file ctx.Context.vfs (prefix ^ "/include/libdwarf.h") "HACKED");
  ignore (Vfs.remove ctx.Context.vfs (prefix ^ "/bin/libdwarf"));
  ignore (Vfs.write_file ctx.Context.vfs (prefix ^ "/bin/stray") "x");
  let reports = ok (Ospack.verify ctx ~query:"libdwarf" ()) in
  (match reports with
  | [ (_, r) ] ->
      Alcotest.(check (list string)) "modified detected"
        [ "include/libdwarf.h" ]
        r.Ospack_store.Provenance.vr_modified;
      Alcotest.(check (list string)) "missing detected" [ "bin/libdwarf" ]
        r.Ospack_store.Provenance.vr_missing;
      Alcotest.(check (list string)) "extra detected" [ "bin/stray" ]
        r.Ospack_store.Provenance.vr_extra
  | _ -> Alcotest.fail "one report expected");
  (* the untouched dependency is still clean *)
  let reports = ok (Ospack.verify ctx ~query:"libelf" ()) in
  Alcotest.(check bool) "dependency clean" true
    (List.for_all
       (fun (_, r) -> Ospack_store.Provenance.report_clean r)
       reports)

(* a context that has concretized two specs, each a persisted miss *)
let concretized_context () =
  let ctx = Context.create () in
  ignore (ok (Ospack.spec ctx "libelf"));
  ignore (ok (Ospack.spec ctx "mpileaks"));
  ctx

let export_import_export () =
  (* the cross-process bridge is lossless: importing an export into a
     fresh context (a fresh filesystem too) and exporting again gives the
     same bytes, and the import persisted every entry *)
  let ctx = concretized_context () in
  let exported = Context.export_ccache ctx in
  let ctx2 = Context.create ~ccache_json:exported () in
  Alcotest.(check string) "export -> import -> export" exported
    (Context.export_ccache ctx2);
  let reopened = Context.create ~vfs:ctx2.Context.vfs () in
  Alcotest.(check bool) "imported entries persisted" true
    (List.for_all
       (fun spec ->
         Ospack_concretize.Ccache.lookup reopened.Context.ccache
           (Ospack_spec.Parser.parse_exn spec)
         <> None)
       [ "libelf"; "mpileaks" ])

let entry_files_match_reference () =
  (* each persisted entry file is the reference render of its entry in
     the export: the export's format and base, then spec, merkle and
     concrete, rendered compact *)
  let module Json = Ospack_json.Json in
  let ctx = concretized_context () in
  match Json.of_string (Context.export_ccache ctx) with
  | Ok (Json.Obj fields) ->
      let header =
        List.filter (fun (k, _) -> k = "format" || k = "base") fields
      in
      let entries =
        match List.assoc_opt "entries" fields with
        | Some (Json.List l) -> l
        | _ -> []
      in
      Alcotest.(check int) "two entries" 2 (List.length entries);
      List.iter
        (function
          | Json.Obj f as entry ->
              let spec =
                Option.get (Option.bind (Json.member "spec" entry) Json.get_string)
              in
              let path =
                Option.get
                  (Ospack_concretize.Ccache.entry_path ctx.Context.ccache
                     (Ospack_spec.Parser.parse_exn spec))
              in
              Alcotest.(check bool) (spec ^ ": under the cache root") true
                (String.starts_with ~prefix:(ctx.Context.ccache_path ^ "/") path);
              Alcotest.(check (result string reject))
                (spec ^ ": file = reference render")
                (Ok (Json.to_string (Json.Obj (header @ f))))
                (Result.map_error (fun _ -> ()) (Vfs.read_file ctx.Context.vfs path))
          | _ -> Alcotest.fail "entry is not an object")
        entries
  | _ -> Alcotest.fail "export is not a JSON object"

let () =
  Alcotest.run "core"
    [
      ( "workflows",
        [
          Alcotest.test_case "install/find/uninstall" `Quick
            install_find_uninstall;
          Alcotest.test_case "coexisting configurations (§4.1)" `Quick
            spec_reuse_check;
          Alcotest.test_case "info/list/graph/compilers" `Quick info_and_lists;
          Alcotest.test_case "providers" `Quick providers_cmd;
          Alcotest.test_case "modules and views" `Quick modules_and_views;
          Alcotest.test_case "python extensions (§4.2)" `Quick python_extensions;
          Alcotest.test_case "reproduce from provenance (§3.4.3)" `Quick
            reproduce_from_provenance;
          Alcotest.test_case "RPATH end-to-end (claim 2)" `Quick
            rpath_end_to_end;
          Alcotest.test_case "site repository (§4.3.2)" `Quick site_repository;
          Alcotest.test_case "clauses backend install" `Quick
            clauses_backend_install;
          Alcotest.test_case "install -j 0 refused" `Quick
            install_rejects_zero_jobs;
          Alcotest.test_case "hash-prefix queries" `Quick hash_queries;
          Alcotest.test_case "merged file-level view" `Quick merged_view;
          Alcotest.test_case "external vendor MPI (§4.4)" `Quick
            external_workflow;
          Alcotest.test_case "garbage collection" `Quick garbage_collect;
          Alcotest.test_case "binary cache workflow" `Quick
            buildcache_workflow;
          Alcotest.test_case "spec diff" `Quick spec_diff;
          Alcotest.test_case "extensions listing (§4.2)" `Quick
            extensions_listing;
          Alcotest.test_case "install reuses satisfying installs (§3.2.3)"
            `Quick install_reuses_satisfying;
          Alcotest.test_case "R extensions (§4.2 closing remark)" `Quick
            r_extensions;
          Alcotest.test_case "verify: manifest integrity" `Quick
            verify_integrity;
          Alcotest.test_case "ccache export -> import -> export" `Quick
            export_import_export;
          Alcotest.test_case "ccache entry files = reference render" `Quick
            entry_files_match_reference;
        ] );
    ]
