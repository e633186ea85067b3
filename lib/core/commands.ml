module Ast = Ospack_spec.Ast
module Parser = Ospack_spec.Parser
module Concrete = Ospack_spec.Concrete
module Cerror = Ospack_concretize.Cerror
module Concretizer = Ospack_concretize.Concretizer
module Backends = Ospack_concretize.Backends
module Ccache = Ospack_concretize.Ccache
module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Provider_index = Ospack_package.Provider_index
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Provenance = Ospack_store.Provenance
module Modulegen = Ospack_modulesgen.Modulegen
module View = Ospack_views.View
module Extensions = Ospack_views.Extensions
module Compilers = Ospack_config.Compilers
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist
module Vfs = Ospack_vfs.Vfs
module Variant_decl = Ospack_package.Variant_decl
module Obs = Ospack_obs.Obs
module Profile = Ospack_obs.Profile

type install_report = {
  ir_spec : Concrete.t;
  ir_outcomes : Installer.outcome list;
  ir_summary : Installer.summary;
  ir_parallel : Installer.parallel_report option;
}

let ( let* ) = Result.bind

(* render a concretization error, adding a "did you mean" hint for
   unknown package names *)
let render_cerror (ctx : Context.t) e =
  let base = Cerror.to_string e in
  match e with
  | Cerror.Unknown_package name -> (
      match Repository.closest ctx.repo name with
      | Some hint -> Printf.sprintf "%s (did you mean %s?)" base hint
      | None -> base)
  | _ -> base

(* §3.2.3: prefer an already-installed configuration satisfying the
   abstract request over concretizing a new one *)
let best_installed (ctx : Context.t) ast =
  let db = Installer.database ctx.installer in
  let candidates = Database.find_satisfying db ast in
  let better (a : Database.record) (b : Database.record) =
    let va = (Concrete.root_node a.Database.r_spec).Concrete.version in
    let vb = (Concrete.root_node b.Database.r_spec).Concrete.version in
    match Version.compare va vb with
    | 0 -> String.compare a.Database.r_hash b.Database.r_hash < 0
    | c -> c > 0
  in
  List.fold_left
    (fun best r ->
      match best with
      | None -> Some r
      | Some b -> if better r b then Some r else best)
    None candidates

(* Every concretization below the command layer flows through the
   fingerprinted cache ({!Ospack_concretize.Ccache}) unless [fresh] asks
   for a from-scratch solve; successful results persist to the store root
   immediately (write-then-rename, like the database index). [reuse]
   additionally short-circuits to an installed concrete spec satisfying
   the query (the store-aware reuse of the ASP follow-up paper, in the
   greedy setting). *)
let concretize_cached (ctx : Context.t) ?(reuse = false) ast =
  let installed =
    if reuse then
      Some
        (fun q ->
          Option.map (fun r -> r.Database.r_spec) (best_installed ctx q))
    else None
  in
  let before = Ccache.length ctx.ccache in
  let result =
    match ctx.backend with
    | Backends.Greedy ->
        Concretizer.concretize_cached ~cache:ctx.ccache ?installed ctx.cctx
          ast
    | Backends.Clauses -> (
        (* same layers as the greedy path: store-aware reuse, the
           whole-query memo (fingerprinted per backend), the memo of
           failed queries, then a full solve stored back either way *)
        match
          match installed with None -> None | Some find -> find ast
        with
        | Some c -> Ok c
        | None -> (
            match Ccache.lookup ctx.ccache ast with
            | Some c -> Ok c
            | None -> (
                match Ccache.failure ctx.ccache ast with
                | Some e -> Error e
                | None ->
                    let r = Backends.solve Backends.Clauses ctx.cctx ast in
                    (match r with
                    | Ok c -> Ccache.store ctx.ccache ast c
                    | Error e -> Ccache.store_failure ctx.ccache ast e);
                    r)))
  in
  (match result with
  | Ok _ when Ccache.length ctx.ccache <> before -> Context.save_ccache ctx
  | _ -> ());
  result

(* On failure, re-solve uncached through the backend's full interface
   and append the rendered conflict chain: the clause backend's unsat
   core, or the greedy backend's blocked decision path (pseudo-core). *)
let render_unsat (ctx : Context.t) ast e =
  let outcome = Backends.solve_full ctx.backend ctx.cctx ast in
  match Backends.explanation ctx.backend outcome with
  | None -> Error (render_cerror ctx e)
  | Some expl ->
      Error
        (render_cerror ctx expl.Cerror.ex_error
        ^ "\n"
        ^ Cerror.explain_to_string expl)

let spec ?(fresh = false) ?(reuse = false) (ctx : Context.t) text =
  match Parser.parse text with
  | Error e -> Error e
  | Ok ast -> (
      let result =
        if fresh then Backends.solve ctx.backend ctx.cctx ast
        else concretize_cached ctx ~reuse ast
      in
      match result with
      | Ok c -> Ok c
      | Error e -> render_unsat ctx ast e)

let spec_explain (ctx : Context.t) text =
  match Parser.parse text with
  | Error e -> Error e
  | Ok ast -> (
      (* explain reports the decisions of a real greedy run, so it never
         consults the cache (a hit would have no decisions to explain) *)
      match Concretizer.concretize_explain ctx.cctx ast with
      | Ok result -> Ok result
      | Error e -> Error (render_cerror ctx e))

(* [spack solve]: run the selected backend's full interface — result,
   search statistics, and (on failure) the conflict explanation. Never
   cached: the point is to observe the solve itself. *)
let solve (ctx : Context.t) text =
  match Parser.parse text with
  | Error e -> Error e
  | Ok ast ->
      Ok
        ( Backends.to_string ctx.backend,
          Backends.solve_full ctx.backend ctx.cctx ast )

let concretize_ast ?(fresh = false) (ctx : Context.t) ast =
  let result =
    if fresh then Backends.solve ctx.backend ctx.cctx ast
    else concretize_cached ctx ast
  in
  Result.map_error (render_cerror ctx) result

let report ?parallel spec outcomes =
  {
    ir_spec = spec;
    ir_outcomes = outcomes;
    ir_summary = Installer.summary_of_outcomes outcomes;
    ir_parallel = parallel;
  }

let install ?(fresh = false) ?(jobs = 1) (ctx : Context.t) text =
  let* ast = Parser.parse text in
  match if fresh then None else best_installed ctx ast with
  | Some record ->
      (* reuse: re-register (marks it explicit) without building *)
      let* outcomes =
        Obs.span ctx.obs ~cat:"install" "install" (fun () ->
            Installer.install ctx.installer record.Database.r_spec)
      in
      Ok (report record.Database.r_spec outcomes)
  | None ->
      let* concrete =
        Obs.span ctx.obs ~cat:"concretize" "concretize" (fun () ->
            concretize_ast ~fresh ctx ast)
      in
      let* preport =
        Obs.span ctx.obs ~cat:"install" "install" (fun () ->
            Installer.install_parallel ctx.installer ~jobs [ concrete ])
      in
      match preport.Installer.pr_failures with
      | [] ->
          (* a makespan is only worth reporting for a real worker pool *)
          let parallel = if jobs > 1 then Some preport else None in
          Ok (report ?parallel concrete preport.Installer.pr_outcomes)
      | failures -> Error (Installer.failures_to_string failures)

type profile_report = {
  pf_spec : Concrete.t;
  pf_report : Installer.parallel_report;
  pf_profile : Profile.t;
}

(* [spack profile]: concretize, install on the -j pool (-j1 is the
   topological order), then replay the recorded
   schedule through the critical-path analyzer. The install itself is
   the profiled artifact, so the reuse shortcut of [install] is skipped:
   an already-installed DAG simply profiles as all-zero-cost reuse. *)
let profile ?(fresh = false) ?(jobs = 1) (ctx : Context.t) text =
  let* ast = Parser.parse text in
  let* concrete =
    Obs.span ctx.obs ~cat:"concretize" "concretize" (fun () ->
        concretize_ast ~fresh ctx ast)
  in
  let* preport =
    Obs.span ctx.obs ~cat:"install" "install" (fun () ->
        Installer.install_parallel ctx.installer ~jobs [ concrete ])
  in
  match preport.Installer.pr_failures with
  | _ :: _ as failures -> Error (Installer.failures_to_string failures)
  | [] ->
      let* prof =
        Profile.analyze (Installer.profile_input ~specs:[ concrete ] preport)
      in
      Ok { pf_spec = concrete; pf_report = preport; pf_profile = prof }

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let find (ctx : Context.t) ?query () =
  let db = Installer.database ctx.installer in
  match query with
  | None -> Ok (Database.all db)
  | Some q -> (
      match String.index_opt q '/' with
      | None ->
          let* ast = Parser.parse q in
          Ok (Database.find_satisfying db ast)
      | Some i ->
          let spec_part = String.trim (String.sub q 0 i) in
          let hash_prefix =
            String.trim (String.sub q (i + 1) (String.length q - i - 1))
          in
          if hash_prefix = "" then
            Error (Printf.sprintf "empty hash prefix in %S" q)
          else
            let* base =
              if spec_part = "" then Ok (Database.all db)
              else
                let* ast = Parser.parse spec_part in
                Ok (Database.find_satisfying db ast)
            in
            Ok
              (List.filter
                 (fun r -> starts_with ~prefix:hash_prefix r.Database.r_hash)
                 base))

let uninstall (ctx : Context.t) text =
  let* records = find ctx ~query:text () in
  match records with
  | [] -> Error (Printf.sprintf "no installed spec matches %s" text)
  | _ :: _ :: _ ->
      Error
        (Printf.sprintf "%s matches %d installed specs; qualify further:\n%s"
           text (List.length records)
           (String.concat "\n"
              (List.map
                 (fun r ->
                   Printf.sprintf "  %s/%s" (Concrete.to_string r.Database.r_spec)
                     r.Database.r_hash)
                 records)))
  | [ record ] -> Installer.uninstall ctx.installer ~hash:record.Database.r_hash

let providers (ctx : Context.t) query =
  let* node = Parser.parse_node query in
  if not (Provider_index.is_virtual ctx.cctx.Concretizer.index node.Ast.name)
  then Error (Printf.sprintf "%s is not a virtual interface" node.Ast.name)
  else Ok (Provider_index.providers_satisfying ctx.cctx.Concretizer.index node)

let info (ctx : Context.t) name =
  match Repository.find ctx.repo name with
  | None ->
      Error (render_cerror ctx (Cerror.Unknown_package name))
  | Some pkg ->
      let buf = Buffer.create 256 in
      let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      addf "Package:     %s\n" pkg.Package.p_name;
      if pkg.Package.p_description <> "" then
        addf "Description: %s\n" pkg.Package.p_description;
      if pkg.Package.p_homepage <> "" then
        addf "Homepage:    %s\n" pkg.Package.p_homepage;
      addf "Source:      %s\n" pkg.Package.p_source;
      addf "Versions:    %s\n"
        (String.concat ", "
           (List.map Version.to_string (Package.known_versions pkg)));
      (match pkg.Package.p_variants with
      | [] -> ()
      | vs ->
          addf "Variants:    %s\n"
            (String.concat ", "
               (List.map
                  (fun v ->
                    Printf.sprintf "%s%s"
                      (if v.Variant_decl.v_default then "+" else "~")
                      v.Variant_decl.v_name)
                  vs)));
      (match pkg.Package.p_dependencies with
      | [] -> ()
      | ds ->
          addf "Depends on:  %s\n"
            (String.concat ", "
               (List.map
                  (fun (d : Package.dep) ->
                    Ospack_spec.Printer.to_string d.Package.d_spec
                    ^
                    match d.Package.d_when with
                    | None -> ""
                    | Some w ->
                        " (when " ^ Ospack_spec.Printer.to_string w ^ ")")
                  ds)));
      (match pkg.Package.p_provides with
      | [] -> ()
      | ps ->
          addf "Provides:    %s\n"
            (String.concat ", "
               (List.map
                  (fun (p : Package.provide) ->
                    Ospack_spec.Printer.node_to_string p.Package.pv_spec)
                  ps)));
      (match pkg.Package.p_extends with
      | Some e -> addf "Extends:     %s\n" e
      | None -> ());
      Ok (Buffer.contents buf)

let list_packages (ctx : Context.t) ?substring () =
  let names = Repository.package_names ctx.repo in
  match substring with
  | None -> names
  | Some sub ->
      let matches name =
        let nl = String.length name and sl = String.length sub in
        let rec at i = i + sl <= nl && (String.sub name i sl = sub || at (i + 1)) in
        sl = 0 || at 0
      in
      List.filter matches names

let graph_tree ctx text =
  let* c = spec ctx text in
  Ok (Concrete.tree_string c)

let graph_dot ctx text =
  let* c = spec ctx text in
  Ok
    (Ospack_dag.Dag.to_dot
       ~label:(fun n -> Concrete.node_to_string (Concrete.node_exn c n))
       (Concrete.to_dag c))

let generate_modules (ctx : Context.t) flavor =
  let db = Installer.database ctx.installer in
  let results =
    List.map
      (fun r ->
        let spec = r.Database.r_spec in
        let prefix = r.Database.r_prefix in
        let root = Concrete.root spec in
        let path, content =
          match flavor with
          | `Dotkit ->
              ( Printf.sprintf "%s/dotkit/%s-%s.dk" ctx.module_root root
                  r.Database.r_hash,
                Modulegen.dotkit spec ~prefix )
          | `Tcl ->
              ( Printf.sprintf "%s/tcl/%s-%s" ctx.module_root root
                  r.Database.r_hash,
                Modulegen.tcl spec ~prefix )
          | `Lmod ->
              ( Printf.sprintf "%s/lmod/%s" ctx.module_root
                  (Modulegen.lmod_hierarchy_path spec),
                Modulegen.lmod spec ~prefix )
        in
        match Vfs.write_file ctx.vfs path content with
        | Ok () -> Ok path
        | Error e -> Error (Vfs.error_to_string e))
      (Database.all db)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | Ok p :: rest -> collect (p :: acc) rest
    | Error e :: _ -> Error e
  in
  collect [] results

let view_result r =
  Result.map_error (fun e -> "view: " ^ Vfs.error_to_string e) r

let view (ctx : Context.t) ~rules =
  let db = Installer.database ctx.installer in
  let installed =
    List.map
      (fun r -> (r.Database.r_spec, r.Database.r_prefix))
      (Database.all db)
  in
  view_result (View.sync ctx.vfs ~config:ctx.config ~rules ~installed)

let view_merge (ctx : Context.t) ~view_root =
  let db = Installer.database ctx.installer in
  let installed =
    List.map
      (fun r -> (r.Database.r_spec, r.Database.r_prefix))
      (Database.all db)
  in
  view_result (View.merge ctx.vfs ~config:ctx.config ~view_root ~installed)

(* A view of exactly the closure of the given concrete specs — what an
   environment links. The shared store may hold arbitrarily many other
   configurations ([view_merge] links them all); here every node of every
   given DAG is resolved to its installed record by sub-DAG hash, so two
   environments over one store get disjoint, closure-exact views. *)
let view_closure (ctx : Context.t) ~view_root concretes =
  let db = Installer.database ctx.installer in
  let* records =
    List.fold_left
      (fun acc (hash, node_name) ->
        let* seen = acc in
        if List.mem_assoc hash seen then Ok seen
        else
          match Database.find_by_hash db hash with
          | Some r -> Ok ((hash, r) :: seen)
          | None ->
              Error
                (Printf.sprintf "%s/%s is not installed (view out of sync)"
                   node_name hash))
      (Ok [])
      (List.concat_map
         (fun c ->
           List.map
             (fun (n : Concrete.node) ->
               (Concrete.dag_hash c n.Concrete.name, n.Concrete.name))
             (Concrete.nodes c))
         concretes)
  in
  let installed =
    List.map
      (fun (_, (r : Database.record)) -> (r.Database.r_spec, r.Database.r_prefix))
      (List.sort
         (fun (_, a) (_, b) ->
           String.compare a.Database.r_hash b.Database.r_hash)
         records)
  in
  view_result (View.merge ctx.vfs ~config:ctx.config ~view_root ~installed)

(* extension queries resolve to a unique installed record *)
let unique_installed ctx text =
  let* records = find ctx ~query:text () in
  match records with
  | [ r ] -> Ok r
  | [] -> Error (Printf.sprintf "no installed spec matches %s" text)
  | _ -> Error (Printf.sprintf "%s is ambiguous among installed specs" text)

let extension_pair (ctx : Context.t) text =
  let* ext = unique_installed ctx text in
  let name = Concrete.root ext.Database.r_spec in
  let* pkg =
    match Repository.find ctx.repo name with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown package: %s" name)
  in
  let* extendee_name =
    match pkg.Package.p_extends with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "%s is not an extension" name)
  in
  let* extendee_hash =
    match Concrete.node ext.Database.r_spec extendee_name with
    | Some _ -> Ok (Concrete.dag_hash ext.Database.r_spec extendee_name)
    | None ->
        Error
          (Printf.sprintf "%s does not depend on its extendee %s" name
             extendee_name)
  in
  let db = Installer.database ctx.installer in
  let* extendee =
    match Database.find_by_hash db extendee_hash with
    | Some r -> Ok r
    | None -> Error (Printf.sprintf "%s is not installed" extendee_name)
  in
  Ok (name, ext, extendee)

let pth_merge ~rel =
  let is_pth =
    let l = String.length rel in
    l >= 4 && String.sub rel (l - 4) 4 = ".pth"
  in
  if is_pth then Some Extensions.line_union_merge else None

let activate ctx text =
  let* name, ext, extendee = extension_pair ctx text in
  Result.map_error Extensions.error_to_string
    (Extensions.activate ctx.Context.vfs ~merge:pth_merge ~ext_name:name
       ~ext_prefix:ext.Database.r_prefix
       ~target_prefix:extendee.Database.r_prefix ())

let deactivate ctx text =
  let* name, ext, extendee = extension_pair ctx text in
  Result.map_error Extensions.error_to_string
    (Extensions.deactivate ctx.Context.vfs ~ext_name:name
       ~ext_prefix:ext.Database.r_prefix
       ~target_prefix:extendee.Database.r_prefix)

let reproduce (ctx : Context.t) ~prefix =
  (* prefer the structured spec.json: it restores the exact DAG without
     re-concretizing, immune to preference drift (§3.4.3); fall back to
     re-concretizing the one-line spec for prefixes that predate it *)
  match Provenance.read_spec_json ctx.vfs ~prefix with
  | Ok concrete ->
      let* outcomes =
        Obs.span ctx.obs ~cat:"install" "install" (fun () ->
            Installer.install ctx.installer concrete)
      in
      Ok (report concrete outcomes)
  | Error _ -> (
      match Provenance.read_spec ctx.vfs ~prefix with
      | None ->
          Error (Printf.sprintf "no provenance spec found under %s" prefix)
      | Some stored -> install ctx stored)

let dependents (ctx : Context.t) ~hash =
  Database.dependents_of (Installer.database ctx.installer) hash

let buildcache_push (ctx : Context.t) =
  match ctx.Context.cache with
  | None -> Error "no build cache configured (create the context with cache_root)"
  | Some cache -> Installer.push_to_cache ctx.installer cache

(* [spack splice <spec> --replace <dep-spec>]: rewire the cached binary
   of an installed spec onto a different dependency without rebuilding.
   The target resolves like any installed-spec query, is pushed to the
   cache on demand, the replacement concretizes and installs through the
   ordinary path (so its prefix exists to splice in), and the heavy
   lifting — spliced DAG, RPATH rewiring, alias records, empty-env
   loader verification — happens in {!Ospack_store.Installer.splice}. *)
let splice (ctx : Context.t) target ~replace =
  match ctx.Context.cache with
  | None -> Error "no build cache configured (create the context with cache_root)"
  | Some cache ->
      let* record = unique_installed ctx target in
      let hash = record.Database.r_hash in
      let* () =
        if Ospack_store.Buildcache.has cache ~hash then Ok ()
        else
          Result.map_error Ospack_store.Buildcache.error_to_string
            (Ospack_store.Buildcache.save cache
               ~install_root:(Installer.install_root ctx.installer)
               record)
      in
      let* ast = Parser.parse replace in
      let* replacement =
        Obs.span ctx.obs ~cat:"concretize" "concretize" (fun () ->
            concretize_ast ctx ast)
      in
      let* _outcomes =
        Obs.span ctx.obs ~cat:"install" "install" (fun () ->
            Installer.install ctx.installer replacement)
      in
      Installer.splice ctx.installer ~hash ~replacement

let verify (ctx : Context.t) ?query () =
  let* records = find ctx ?query () in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (r : Database.record) :: rest ->
        if r.Database.r_external then go acc rest
        else
          let* report =
            Provenance.verify_manifest ctx.Context.vfs
              ~prefix:r.Database.r_prefix
          in
          go ((r, report) :: acc) rest
  in
  go [] records

let gc (ctx : Context.t) =
  let db = Installer.database ctx.installer in
  let removable () =
    List.find_opt
      (fun r ->
        (not r.Database.r_explicit)
        && Database.dependents_of db r.Database.r_hash = [])
      (Database.all db)
  in
  let rec loop removed =
    match removable () with
    | None -> Ok (List.rev removed)
    | Some r -> (
        match Installer.uninstall ctx.installer ~hash:r.Database.r_hash with
        | Ok record -> loop (record :: removed)
        | Error e -> Error e)
  in
  loop []

let diff (ctx : Context.t) a b =
  let* ca = spec ctx a in
  let* cb = spec ctx b in
  let lines = ref [] in
  let addf fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let names =
    List.sort_uniq String.compare
      (List.map (fun n -> n.Concrete.name) (Concrete.nodes ca)
      @ List.map (fun n -> n.Concrete.name) (Concrete.nodes cb))
  in
  List.iter
    (fun name ->
      match (Concrete.node ca name, Concrete.node cb name) with
      | None, None -> ()
      | Some _, None -> addf "%s: only in %s" name a
      | None, Some _ -> addf "%s: only in %s" name b
      | Some na, Some nb ->
          if not (Version.equal na.Concrete.version nb.Concrete.version) then
            addf "%s: version %s vs %s" name
              (Version.to_string na.Concrete.version)
              (Version.to_string nb.Concrete.version);
          let ca_c = na.Concrete.compiler and cb_c = nb.Concrete.compiler in
          if
            fst ca_c <> fst cb_c
            || not (Version.equal (snd ca_c) (snd cb_c))
          then
            addf "%s: compiler %%%s@%s vs %%%s@%s" name (fst ca_c)
              (Version.to_string (snd ca_c))
              (fst cb_c)
              (Version.to_string (snd cb_c));
          if na.Concrete.arch <> nb.Concrete.arch then
            addf "%s: architecture =%s vs =%s" name na.Concrete.arch
              nb.Concrete.arch;
          Concrete.Smap.iter
            (fun v va ->
              match Concrete.Smap.find_opt v nb.Concrete.variants with
              | Some vb when Bool.equal va vb -> ()
              | Some vb ->
                  addf "%s: variant %s%s vs %s%s" name
                    (if va then "+" else "~")
                    v
                    (if vb then "+" else "~")
                    v
              | None -> addf "%s: variant %s only on one side" name v)
            na.Concrete.variants)
    names;
  Ok (List.rev !lines)

let extensions_of (ctx : Context.t) query =
  let* extendee = unique_installed ctx query in
  let extendee_name = Concrete.root extendee.Database.r_spec in
  let active =
    Extensions.active ctx.Context.vfs
      ~target_prefix:extendee.Database.r_prefix
  in
  let db = Installer.database ctx.installer in
  let records =
    List.filter
      (fun r ->
        let name = Concrete.root r.Database.r_spec in
        match Repository.find ctx.repo name with
        | Some p -> p.Package.p_extends = Some extendee_name
        | None -> false)
      (Database.all db)
  in
  Ok
    (List.map
       (fun r ->
         let name = Concrete.root r.Database.r_spec in
         (r, List.mem_assoc name active))
       records)

let compiler_list (ctx : Context.t) =
  List.map
    (fun tc ->
      Printf.sprintf "%s@%s (cc=%s cxx=%s f77=%s fc=%s)%s"
        tc.Compilers.tc_name
        (Version.to_string tc.Compilers.tc_version)
        tc.Compilers.tc_cc tc.Compilers.tc_cxx tc.Compilers.tc_f77
        tc.Compilers.tc_fc
        (match tc.Compilers.tc_archs with
        | [] -> ""
        | archs -> " [" ^ String.concat ", " archs ^ "]"))
    (Compilers.all ctx.compilers)
