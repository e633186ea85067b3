(* Whole-universe integration properties: random packages go through the
   full concretize → install → load pipeline and the paper's guarantees
   hold every time. *)

module Concrete = Ospack_spec.Concrete
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Loader = Ospack_buildsim.Loader
module Env = Ospack_buildsim.Env
module Vfs = Ospack_vfs.Vfs
module Repository = Ospack_package.Repository
module Modulegen = Ospack_modulesgen.Modulegen
module View = Ospack_views.View
module Universe = Ospack_repo.Universe

(* packages concretizable on the default (linux) platform *)
let linux_names =
  lazy
    (Repository.package_names (Universe.repository ())
    |> List.filter (fun n -> n <> "bgq-mpi" && n <> "cray-mpi"))

let arb_package =
  QCheck.make
    ~print:(fun s -> s)
    (QCheck.Gen.oneofl (Lazy.force linux_names))

let fresh_ctx () = Ospack.Context.create ()

(* one shared context keeps the property fast while still exercising
   cross-package reuse *)
let shared = lazy (fresh_ctx ())

let install_pipeline =
  QCheck.Test.make ~count:60
    ~name:"install: bottom-up, idempotent, RPATH-complete, provenanced"
    arb_package
    (fun name ->
      let ctx = Lazy.force shared in
      match Ospack.install ctx name with
      | Error _ -> false (* the whole universe must install on linux *)
      | Ok report ->
          let outcomes = report.Ospack.Commands.ir_outcomes in
          let root =
            List.nth outcomes (List.length outcomes - 1)
          in
          let prefix = root.Installer.o_record.Database.r_prefix in
          (* claim 2: the root binary runs with an empty environment *)
          let runs_bare =
            Loader.can_run ctx.Ospack.Context.vfs
              ~path:
                (prefix ^ "/bin/"
                ^ Concrete.root root.Installer.o_record.Database.r_spec)
              ~env:Env.empty
          in
          (* §3.4.3: provenance written for everything built here *)
          let provenanced =
            List.for_all
              (fun o ->
                o.Installer.o_reused
                || Ospack_store.Provenance.read_spec ctx.Ospack.Context.vfs
                     ~prefix:o.Installer.o_record.Database.r_prefix
                   <> None)
              outcomes
          in
          (* idempotence: a second install reuses every node *)
          let idempotent =
            match Ospack.install ctx name with
            | Ok again ->
                List.for_all
                  (fun o -> o.Installer.o_reused)
                  again.Ospack.Commands.ir_outcomes
            | Error _ -> false
          in
          runs_bare && provenanced && idempotent)

let modules_total =
  QCheck.Test.make ~count:20
    ~name:"module generation succeeds for arbitrary installs" arb_package
    (fun name ->
      let ctx = Lazy.force shared in
      match Ospack.install ctx name with
      | Error _ -> false
      | Ok _ -> (
          match Ospack.generate_modules ctx `Tcl with
          | Error _ -> false
          | Ok paths ->
              paths <> []
              && List.for_all
                   (fun p -> Vfs.is_file ctx.Ospack.Context.vfs p)
                   paths))

let view_expansion_total =
  QCheck.Test.make ~count:60 ~name:"view rules expand for any install"
    arb_package
    (fun name ->
      let ctx = Lazy.force shared in
      match Ospack.spec ctx name with
      | Error _ -> false
      | Ok c ->
          let link =
            View.expand_rule "/v/${PACKAGE}-${VERSION}-${MPINAME}-${HASH}" c
          in
          String.length link > String.length "/v/---"
          && not (Astring.String.is_infix ~affix:"${" link))

let uninstall_then_gc_converges () =
  (* after uninstalling every explicit root and collecting garbage, the
     store is empty — no leaked records *)
  let ctx = fresh_ctx () in
  List.iter
    (fun s ->
      match Ospack.install ctx s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "install %s: %s" s e)
    [ "mpileaks"; "py-numpy"; "stat" ];
  let explicit_roots () =
    List.filter
      (fun r -> r.Database.r_explicit)
      (Database.all (Installer.database ctx.Ospack.Context.installer))
  in
  List.iter
    (fun r ->
      match Ospack.uninstall ctx ("/" ^ r.Database.r_hash) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "uninstall: %s" e)
    (explicit_roots ());
  (match Ospack.gc ctx with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "gc: %s" e);
  let installer = ctx.Ospack.Context.installer in
  Alcotest.(check int) "store drained" 0
    (Database.count (Installer.database installer));
  (* the drained store persisted: a fresh installer on the same
     filesystem loads nothing, and no record file is left *)
  let vfs = Installer.vfs installer in
  let fresh =
    Installer.create ~vfs ~repo:ctx.Ospack.Context.repo
      ~compilers:ctx.Ospack.Context.compilers ()
  in
  Alcotest.(check (result int string)) "reload empty" (Ok 0)
    (Installer.load_index fresh);
  Alcotest.(check (list string)) "no record files" []
    (Ospack_vfs.Sharded_dir.keys vfs ~root:(Installer.index_dir installer))

let () =
  Alcotest.run "integration"
    [
      ( "universe",
        [
          QCheck_alcotest.to_alcotest install_pipeline;
          QCheck_alcotest.to_alcotest modules_total;
          QCheck_alcotest.to_alcotest view_expansion_total;
          Alcotest.test_case "uninstall + gc drains the store" `Quick
            uninstall_then_gc_converges;
        ] );
    ]
