(* The concretization algorithm (paper §3.4, Fig. 6): constraint
   intersection, virtual resolution, parameter policies, conditional
   dependencies, declared conflicts, every error class, the clause-backend
   extension (§4.5), and whole-universe invariants. *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Config = Ospack_config.Config
module Concretizer = Ospack_concretize.Concretizer
module Cerror = Ospack_concretize.Cerror
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Ast = Ospack_spec.Ast
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist
module Universe = Ospack_repo.Universe

let base_packages =
  [
    make_pkg "mpileaks"
      [
        version "1.0"; version "1.1";
        depends_on "mpi"; depends_on "callpath";
        variant "debug" ~descr:"debug";
      ];
    make_pkg "callpath"
      [
        version "0.9"; version "1.0"; version "1.1";
        depends_on "dyninst"; depends_on "mpi";
        variant "debug" ~descr:"debug";
      ];
    make_pkg "dyninst"
      [ version "8.1.2"; version "8.2"; depends_on "libdwarf"; depends_on "libelf" ];
    make_pkg "libdwarf" [ version "20130729"; depends_on "libelf" ];
    make_pkg "libelf" [ version "0.8.11"; version "0.8.13" ];
    make_pkg "mpich"
      [
        version "1.4"; version "3.0.4";
        provides "mpi@:3" ~when_:"@3:";
        provides "mpi@:1" ~when_:"@1:1.9";
      ];
    make_pkg "mvapich2"
      [
        version "1.9"; version "2.0";
        provides "mpi@:2.2" ~when_:"@1.9";
        provides "mpi@:3.0" ~when_:"@2.0";
      ];
    make_pkg "openmpi" [ version "1.4.7"; version "1.8.2"; provides "mpi@:2.2" ];
    make_pkg "gerris" [ version "1.0"; depends_on "mpi@2:" ];
  ]

let compilers =
  Compilers.create
    [
      Compilers.toolchain "gcc" "4.7.3";
      Compilers.toolchain "gcc" "4.9.2";
      Compilers.toolchain "intel" "14.0.3";
      Compilers.toolchain "xl" "12.1" ~archs:[ "bgq" ];
    ]

let ctx_of ?(config = Config.empty) ?(extra = []) () =
  Concretizer.make_ctx ~config ~compilers
    (Repository.create (base_packages @ extra))

let ok ctx spec =
  match Concretizer.concretize_string ctx spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s failed to concretize: %s" spec e

let err_of ctx spec =
  match Concretizer.concretize ctx (Parser.parse_exn spec) with
  | Ok c -> Alcotest.failf "%s unexpectedly concretized to %s" spec (Concrete.to_string c)
  | Error e -> e

let node c name =
  match Concrete.node c name with
  | Some n -> n
  | None -> Alcotest.failf "node %s missing from %s" name (Concrete.to_string c)

let vstr v = Version.to_string v

(* Fig. 2a -> Fig. 7: an unconstrained spec becomes a full concrete DAG *)
let unconstrained_root () =
  let c = ok (ctx_of ()) "mpileaks" in
  Alcotest.(check int) "6 nodes (Fig. 7)" 6 (Concrete.node_count c);
  Alcotest.(check string) "newest mpileaks" "1.1" (vstr (node c "mpileaks").Concrete.version);
  Alcotest.(check string) "newest libelf" "0.8.13" (vstr (node c "libelf").Concrete.version);
  (* all parameters pinned; variants default to false *)
  List.iter
    (fun n ->
      Alcotest.(check string) ("arch of " ^ n.Concrete.name) "linux-x86_64" n.Concrete.arch)
    (Concrete.nodes c);
  Alcotest.(check bool) "debug defaulted off" true
    (Concrete.Smap.find_opt "debug" (node c "mpileaks").Concrete.variants = Some false);
  (* single version of each package: node names unique by construction;
     libelf appears once though reached via two paths *)
  Alcotest.(check int) "libelf in-edges" 2
    (List.length (Ospack_dag.Dag.predecessors (Concrete.to_dag c) "libelf"))

(* Fig. 2c: recursive constraints land on the right nodes *)
let recursive_constraints () =
  let c = ok (ctx_of ()) "mpileaks@1.0 ^callpath@1.0+debug ^libelf@0.8.11" in
  Alcotest.(check string) "root pinned" "1.0" (vstr (node c "mpileaks").Concrete.version);
  Alcotest.(check string) "callpath pinned" "1.0" (vstr (node c "callpath").Concrete.version);
  Alcotest.(check string) "libelf pinned" "0.8.11" (vstr (node c "libelf").Concrete.version);
  Alcotest.(check (option bool)) "callpath debug on" (Some true)
    (Concrete.Smap.find_opt "debug" (node c "callpath").Concrete.variants);
  Alcotest.(check (option bool)) "mpileaks debug untouched" (Some false)
    (Concrete.Smap.find_opt "debug" (node c "mpileaks").Concrete.variants)

let version_ranges () =
  let c = ok (ctx_of ()) "mpileaks ^dyninst@:8.1" in
  Alcotest.(check string) "range picks 8.1.2" "8.1.2"
    (vstr (node c "dyninst").Concrete.version);
  (* unknown exact version extrapolates *)
  let c = ok (ctx_of ()) "libelf@0.8.99" in
  Alcotest.(check string) "extrapolated" "0.8.99" (vstr (node c "libelf").Concrete.version)

let compiler_propagation () =
  let c = ok (ctx_of ()) "mpileaks %intel" in
  List.iter
    (fun n ->
      Alcotest.(check string) ("compiler of " ^ n.Concrete.name) "intel"
        (fst n.Concrete.compiler))
    (Concrete.nodes c);
  (* per-node override: compiler constraint on one dependency only *)
  let c = ok (ctx_of ()) "mpileaks %intel ^libelf %gcc@4.7.3" in
  Alcotest.(check string) "libelf uses gcc" "gcc" (fst (node c "libelf").Concrete.compiler);
  Alcotest.(check string) "root still intel" "intel" (fst (node c "mpileaks").Concrete.compiler);
  (* compiler version chosen newest when unconstrained *)
  let c = ok (ctx_of ()) "libelf %gcc" in
  Alcotest.(check string) "newest gcc" "4.9.2" (vstr (snd (node c "libelf").Concrete.compiler))

let arch_propagation () =
  let c = ok (ctx_of ()) "mpileaks =bgq %xl" in
  List.iter
    (fun n ->
      Alcotest.(check string) ("arch of " ^ n.Concrete.name) "bgq" n.Concrete.arch)
    (Concrete.nodes c);
  (* config default *)
  let cfg = Config.of_assoc [ ("arch", "bgq") ] in
  let c = ok (ctx_of ~config:cfg ()) "libelf %xl" in
  Alcotest.(check string) "config arch" "bgq" (node c "libelf").Concrete.arch

let virtual_resolution () =
  let ctx = ctx_of () in
  (* forcing a provider via ^ (paper §3.4) *)
  let c = ok ctx "mpileaks ^mvapich2" in
  Alcotest.(check bool) "mvapich2 chosen" true (Concrete.node c "mvapich2" <> None);
  Alcotest.(check bool) "mpi gone" true (Concrete.node c "mpi" = None);
  Alcotest.(check bool) "provided recorded" true
    (List.mem_assoc "mpi" (node c "mvapich2").Concrete.provided);
  (* provider version constrained through the interface version: gerris
     needs mpi@2:, so mpich must be 3.x (its 1.x provides only mpi@:1) *)
  let c = ok ctx "gerris ^mpich" in
  Alcotest.(check string) "mpich at 3.0.4" "3.0.4" (vstr (node c "mpich").Concrete.version);
  (* site provider preference *)
  let cfg = Config.of_assoc [ ("providers.mpi", "openmpi") ] in
  let c = ok (ctx_of ~config:cfg ()) "mpileaks" in
  Alcotest.(check bool) "openmpi preferred" true (Concrete.node c "openmpi" <> None);
  (* a virtual as the install root *)
  let c = ok ctx "mpi" in
  Alcotest.(check bool) "some provider" true
    (List.mem_assoc "mpi" (Concrete.root_node c).Concrete.provided)

let versioned_virtual_requirement () =
  (* ^mpi@2: must exclude providers that only offer mpi@:1 *)
  let ctx = ctx_of () in
  let c = ok ctx "mpileaks ^mpi@2:" in
  let provider =
    List.find
      (fun n -> List.mem_assoc "mpi" n.Concrete.provided)
      (Concrete.nodes c)
  in
  let provided = List.assoc "mpi" provider.Concrete.provided in
  Alcotest.(check bool) "provided intersects 2:" true
    (Vlist.intersects provided (Vlist.of_string "2:"))

let conditional_dependencies () =
  let extra =
    [
      make_pkg "condpkg"
        [
          version "1.0"; version "2.0";
          variant "mpi" ~descr:"parallel build";
          depends_on "mpi" ~when_:"+mpi";
          depends_on "libelf@0.8.11" ~when_:"@:1";
          depends_on "libelf@0.8.13" ~when_:"@2:";
        ];
    ]
  in
  let ctx = ctx_of ~extra () in
  let c = ok ctx "condpkg" in
  Alcotest.(check bool) "no mpi without variant" true
    (not
       (List.exists
          (fun n -> List.mem_assoc "mpi" n.Concrete.provided)
          (Concrete.nodes c)));
  Alcotest.(check string) "v2 gets newer libelf" "0.8.13"
    (vstr (node c "libelf").Concrete.version);
  let c = ok ctx "condpkg@1.0 +mpi" in
  Alcotest.(check bool) "mpi pulled by +mpi" true
    (List.exists
       (fun n -> List.mem_assoc "mpi" n.Concrete.provided)
       (Concrete.nodes c));
  Alcotest.(check string) "v1 gets older libelf" "0.8.11"
    (vstr (node c "libelf").Concrete.version)

let compiler_conditional_deps () =
  (* the paper's ROSE example: boost version depends on the compiler *)
  let extra =
    [
      make_pkg "boost" [ version "1.47.0"; version "1.55.0" ];
      make_pkg "rose-like"
        [
          version "1.0";
          depends_on "boost@1.47.0" ~when_:"%gcc@:4.7";
          depends_on "boost@1.55.0" ~when_:"%gcc@4.8:";
          depends_on "boost@1.55.0" ~when_:"%intel";
        ];
    ]
  in
  let ctx = ctx_of ~extra () in
  let c = ok ctx "rose-like %gcc@4.7.3" in
  Alcotest.(check string) "old gcc -> old boost" "1.47.0"
    (vstr (node c "boost").Concrete.version);
  let c = ok ctx "rose-like %gcc@4.9.2" in
  Alcotest.(check string) "new gcc -> new boost" "1.55.0"
    (vstr (node c "boost").Concrete.version);
  let c = ok ctx "rose-like %intel" in
  Alcotest.(check string) "intel -> new boost" "1.55.0"
    (vstr (node c "boost").Concrete.version)

let error_classes () =
  let ctx = ctx_of () in
  (match err_of ctx "nosuchpackage" with
  | Cerror.Unknown_package "nosuchpackage" -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (match err_of ctx "mpileaks +nonvariant" with
  | Cerror.Unknown_variant { package = "mpileaks"; variant = "nonvariant" } -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (match err_of ctx "libelf@2:3 @4:5" with
  | Cerror.No_version _ -> Alcotest.fail "parse should already intersect"
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> () (* parse-time conflict *));
  (match err_of ctx "libelf@2:3" with
  | Cerror.No_version { package = "libelf"; _ } -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (match err_of ctx "mpileaks ^mpi@9:" with
  | Cerror.No_provider { virtual_ = "mpi"; _ } -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (match err_of ctx "mpileaks %xl" with
  | Cerror.No_compiler _ -> () (* xl only exists on bgq *)
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (match err_of ctx "gerris ^mpich@1.4" with
  | Cerror.Conflict _ -> () (* needs mpi@2:, mpich@1.4 gives mpi@:1 *)
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (match err_of ctx "mpileaks ^gerris" with
  | Cerror.Unused_constraint { package = "gerris"; _ } -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e))

(* regression for the former [assert false] landmines in the version and
   provider decision sites: every pathological input must surface as a
   typed [Cerror.t], never an assertion or match failure *)
let typed_errors_never_raise () =
  let ctx = ctx_of () in
  List.iter
    (fun spec ->
      match Concretizer.concretize ctx (Parser.parse_exn spec) with
      | Ok _ | Error _ -> ()
      | exception Invalid_argument _ -> () (* parse-time conflict *)
      | exception e ->
          Alcotest.failf "%s raised %s instead of returning a typed error"
            spec (Printexc.to_string e))
    [
      "nosuchpkg";
      "mpileaks@99";
      "mpileaks@99 ^nosuchdep";
      "libelf@2:3";
      "mpi@9:";
      "mpi";
      "mpileaks ^mpi@9:";
      "gerris ^mpich@1.4";
      "gerris ^mpich@1.4 ^callpath@0.1";
      "mpileaks %xl";
      "mpileaks %xl@99";
      "mpileaks =vax";
      "mpileaks +nonvariant";
      "mpileaks ^gerris";
      "mpileaks ^callpath@9 ^dyninst@0.1";
      "mvapich2@1.9 ^mvapich2@2.0";
    ];
  (* the single-candidate and multi-candidate version decision paths both
     stay on the typed-result rails *)
  let c = ok ctx "libdwarf" in
  Alcotest.(check string) "single version candidate" "20130729"
    (Version.to_string (node c "libdwarf").Concrete.version);
  let c = ok ctx "libelf" in
  Alcotest.(check string) "multi version candidate picks newest" "0.8.13"
    (Version.to_string (node c "libelf").Concrete.version)

let declared_conflicts () =
  let extra =
    [
      make_pkg "mklish"
        [
          version "1.0";
          conflicts "=bgq" ~msg:"vendor library unavailable on BG/Q";
        ];
    ]
  in
  let ctx = ctx_of ~extra () in
  ignore (ok ctx "mklish");
  match err_of ctx "mklish =bgq %xl" with
  | Cerror.Conflict_declared { package = "mklish"; _ } -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e)

let dependency_cycles () =
  let extra =
    [
      make_pkg "cyc-a" [ version "1.0"; depends_on "cyc-b" ];
      make_pkg "cyc-b" [ version "1.0"; depends_on "cyc-a" ];
    ]
  in
  match err_of (ctx_of ~extra ()) "cyc-a" with
  | Cerror.Cycle _ -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e)

let determinism_and_hashes () =
  let ctx = ctx_of () in
  let a = ok ctx "mpileaks" and b = ok ctx "mpileaks" in
  Alcotest.(check bool) "deterministic result" true (Concrete.equal a b);
  Alcotest.(check string) "deterministic hash" (Concrete.root_hash a)
    (Concrete.root_hash b);
  (* Fig. 9: the dyninst sub-DAG is identical across MPI choices *)
  let with_mpich = ok ctx "mpileaks ^mpich" in
  let with_openmpi = ok ctx "mpileaks ^openmpi" in
  Alcotest.(check string) "shared dyninst sub-DAG"
    (Concrete.dag_hash with_mpich "dyninst")
    (Concrete.dag_hash with_openmpi "dyninst");
  Alcotest.(check bool) "roots differ" true
    (Concrete.root_hash with_mpich <> Concrete.root_hash with_openmpi)

(* §4.5: greedy fails on the hwloc pattern; the complete clause backend
   recovers *)
let clause_backend_recovers () =
  let module I = Ospack_concretize.Concretizer_intf in
  let module Backends = Ospack_concretize.Backends in
  let extra =
    [
      make_pkg "hwloc" [ version "1.8"; version "1.9" ];
      make_pkg "a-mpi" [ version "1.0"; provides "mpi2"; depends_on "hwloc@1.8" ];
      make_pkg "z-mpi" [ version "1.0"; provides "mpi2"; depends_on "hwloc@1.9" ];
      make_pkg "pkg-p" [ version "1.0"; depends_on "mpi2"; depends_on "hwloc@1.9" ];
    ]
  in
  let ctx = ctx_of ~extra () in
  let ast = Parser.parse_exn "pkg-p" in
  (match Concretizer.concretize ctx ast with
  | Ok _ -> Alcotest.fail "greedy should conflict on hwloc"
  | Error (Cerror.Conflict _) -> ()
  | Error e -> Alcotest.failf "wrong greedy error: %s" (Cerror.to_string e));
  let clauses ast = Backends.solve_full Backends.Clauses ctx ast in
  (let oc = clauses ast in
   match oc.I.oc_result with
   | Ok c ->
       Alcotest.(check string) "z-mpi chosen" "1.9"
         (vstr (node c "hwloc").Concrete.version);
       Alcotest.(check bool) "used more than one run" true
         (oc.I.oc_stats.I.st_runs > 1)
   | Error e -> Alcotest.failf "clauses failed: %s" (Cerror.to_string e));
  (* an actually unsatisfiable request still fails *)
  (match (clauses (Parser.parse_exn "pkg-p ^a-mpi")).I.oc_result with
  | Ok _ -> Alcotest.fail "unsatisfiable"
  | Error _ -> ());
  (* on a spec greedy solves, the clause backend returns the greedy answer *)
  let mpileaks = Parser.parse_exn "mpileaks" in
  let oc = clauses mpileaks in
  match (oc.I.oc_result, Concretizer.concretize ctx mpileaks) with
  | Ok c, Ok g ->
      Alcotest.(check bool) "greedy answer" true (Concrete.equal c g);
      Alcotest.(check int) "single run" 1 oc.I.oc_stats.I.st_runs
  | Error e, _ | _, Error e -> Alcotest.failf "unexpected: %s" (Cerror.to_string e)

(* §4.5 future work: compiler-feature requirements *)
let compiler_features () =
  let extra =
    [
      make_pkg "needs-cxx11"
        [ version "1.0"; requires_compiler_feature "cxx11" ];
      make_pkg "needs-cxx11-later"
        [
          version "1.0"; version "2.0";
          requires_compiler_feature "cxx11" ~when_:"@2:";
        ];
      make_pkg "needs-cuda" [ version "1.0"; requires_compiler_feature "cuda" ];
    ]
  in
  let feature_compilers =
    Compilers.create
      [
        Compilers.toolchain "gcc" "4.4.7" ~features:[ "c99" ];
        Compilers.toolchain "gcc" "4.9.2" ~features:[ "c99"; "cxx11" ];
        Compilers.toolchain "intel" "14.0.3" ~features:[ "c99"; "cxx11" ];
      ]
  in
  let ctx =
    Concretizer.make_ctx ~compilers:feature_compilers
      (Repository.create (base_packages @ extra))
  in
  let ok spec =
    match Concretizer.concretize_string ctx spec with
    | Ok c -> c
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  (* an unconstrained request lands on a cxx11-capable toolchain *)
  let c = ok "needs-cxx11" in
  Alcotest.(check string) "feature-capable gcc chosen" "4.9.2"
    (vstr (snd (node c "needs-cxx11").Concrete.compiler));
  (* an explicit %gcc@4.4.7 request cannot satisfy the feature *)
  (match err_of ctx "needs-cxx11 %gcc@4.4.7" with
  | Cerror.No_compiler { requested; _ } ->
      Alcotest.(check bool) "error names the feature" true
        (Astring.String.is_infix ~affix:"cxx11" requested)
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (* conditional requirement: v1 builds with the old gcc, v2 does not *)
  let c = ok "needs-cxx11-later@1.0 %gcc@4.4.7" in
  Alcotest.(check string) "old version tolerates old gcc" "4.4.7"
    (vstr (snd (node c "needs-cxx11-later").Concrete.compiler));
  (match err_of ctx "needs-cxx11-later@2.0 %gcc@4.4.7" with
  | Cerror.No_compiler _ -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (* no registered toolchain has cuda at all *)
  match err_of ctx "needs-cuda" with
  | Cerror.No_compiler _ -> ()
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e)

let explain_decisions () =
  let ctx = ctx_of () in
  match Concretizer.concretize_explain ctx (Parser.parse_exn "mpileaks") with
  | Error e -> Alcotest.failf "explain failed: %s" (Cerror.to_string e)
  | Ok (c, decisions) ->
      Alcotest.(check int) "same DAG as plain concretize" 6
        (Concrete.node_count c);
      Alcotest.(check bool) "provider decision reported" true
        (List.exists
           (fun d -> Astring.String.is_prefix ~affix:"virtual mpi ->" d)
           decisions);
      Alcotest.(check bool) "version decisions reported" true
        (List.exists
           (fun d ->
             Astring.String.is_prefix ~affix:"version of mpileaks ->" d)
           decisions);
      Alcotest.(check bool) "candidate counts included" true
        (List.for_all
           (fun d -> Astring.String.is_infix ~affix:"candidates" d)
           decisions);
      (* single-candidate pins are not decisions, so libdwarf (2 versions)
         appears but a 1-version package would not *)
      Alcotest.(check bool) "no spurious single-candidate entries" true
        (List.for_all
           (fun d -> not (Astring.String.is_infix ~affix:"of 1 candidates" d))
           decisions);
      (* the exact lines, in the order the decisions were taken *)
      let lines spec =
        match Concretizer.concretize_explain ctx (Parser.parse_exn spec) with
        | Ok (_, lines) -> lines
        | Error e -> Alcotest.failf "%s: %s" spec (Cerror.to_string e)
      in
      Alcotest.(check (list string)) "mpileaks"
        [
          "virtual mpi -> mpich (1 of 3 candidates)";
          "version of mpileaks -> 1.1 (1 of 2 candidates)";
          "version of callpath -> 1.1 (1 of 3 candidates)";
          "version of dyninst -> 8.2 (1 of 2 candidates)";
          "version of libelf -> 0.8.13 (1 of 2 candidates)";
        ]
        (lines "mpileaks");
      Alcotest.(check (list string)) "mpileaks %intel ^openmpi"
        [
          "virtual mpi -> openmpi (1 of 3 candidates)";
          "version of mpileaks -> 1.1 (1 of 2 candidates)";
          "version of openmpi -> 1.8.2 (1 of 2 candidates)";
          "version of callpath -> 1.1 (1 of 3 candidates)";
          "version of dyninst -> 8.2 (1 of 2 candidates)";
          "version of libelf -> 0.8.13 (1 of 2 candidates)";
        ]
        (lines "mpileaks %intel ^openmpi")

(* the core soundness property: a successful concretization satisfies the
   abstract spec it came from *)
let satisfies_input_property =
  let ctx =
    lazy
      (Concretizer.make_ctx ~config:Universe.default_config
         ~compilers:Universe.compilers (Universe.repository ()))
  in
  let gen =
    QCheck.Gen.(
      let pkg =
        oneofl
          [ "mpileaks"; "callpath"; "dyninst"; "libdwarf"; "libelf"; "hdf5";
            "boost"; "python"; "py-numpy"; "hypre"; "samrai"; "gperftools";
            "ares" ]
      in
      let constraint_ =
        oneofl
          [ ""; "+debug"; "~debug"; "%gcc"; "%gcc@4.7.3"; "%intel"; "@1:";
            "=bgq"; "=linux-x86_64" ]
      in
      let dep =
        oneofl
          [ ""; " ^libelf@0.8.12"; " ^mvapich2"; " ^openmpi"; " ^zlib";
            " ^mpi@2:"; " ^boost@1.55.0" ]
      in
      let* p = pkg in
      let* c = constraint_ in
      let* d = dep in
      return (p ^ c ^ d))
  in
  QCheck.Test.make ~count:250
    ~name:"concretize result satisfies its abstract input"
    (QCheck.make ~print:(fun s -> s) gen)
    (fun spec ->
      match Parser.parse spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok ast -> (
          match Concretizer.concretize (Lazy.force ctx) ast with
          | Error _ -> true (* failing is allowed; lying is not *)
          | Ok c ->
              Concrete.satisfies c ast
              (* and determinism *)
              && (match Concretizer.concretize (Lazy.force ctx) ast with
                 | Ok c2 -> Concrete.equal c c2
                 | Error _ -> false)))

(* --- whole-universe invariants --- *)

let universe_ctx () =
  Concretizer.make_ctx ~config:Universe.default_config
    ~compilers:Universe.compilers (Universe.repository ())

(* §4.5: the greedy backend's failure core is its decision path up to
   the dead end, then the blocking error *)
let greedy_blocked_path () =
  let module I = Ospack_concretize.Concretizer_intf in
  let module Backends = Ospack_concretize.Backends in
  let oc =
    Backends.solve_full Backends.Greedy (universe_ctx ())
      (Parser.parse_exn "mpileaks ^mpi+hwloc ^hwloc@1.9")
  in
  Alcotest.(check (list string)) "blocked decision path"
    [
      "virtual mpi -> mvapich2 (1 of 6 candidates)";
      "blocked: conflicting version constraints on hwloc: 1.8 vs 1.9";
    ]
    oc.I.oc_core

let universe_concretizes () =
  let ctx = universe_ctx () in
  let failures = ref [] in
  List.iter
    (fun name ->
      (* vendor MPIs only exist on their machines *)
      let spec =
        match name with
        | "bgq-mpi" -> "bgq-mpi =bgq %gcc"
        | "cray-mpi" -> "cray-mpi =cray_xe6 %gcc"
        | n -> n
      in
      match Concretizer.concretize_string ctx spec with
      | Ok c ->
          (* every node fully concrete and every dep edge present *)
          List.iter
            (fun n ->
              List.iter
                (fun d ->
                  if Concrete.node c d = None then
                    failures := (name ^ ": missing " ^ d) :: !failures)
                n.Concrete.deps)
            (Concrete.nodes c)
      | Error e -> failures := (name ^ ": " ^ e) :: !failures)
    (Repository.package_names (Universe.repository ()));
  Alcotest.(check (list string)) "no failures" [] !failures

let multi_virtual_provider () =
  (* one package providing two interfaces (mkl: blas + lapack-interface) *)
  let ctx = universe_ctx () in
  let cfg_mkl =
    Config.layer
      [
        Config.of_assoc
          [
            ("providers.blas", "mkl");
            ("providers.lapack-interface", "mkl");
          ];
        Universe.default_config;
      ]
  in
  let ctx_mkl =
    Concretizer.make_ctx ~config:cfg_mkl ~compilers:Universe.compilers
      (Ospack_repo.Universe.repository ())
  in
  let c = ok ctx_mkl "py-numpy" in
  let mkl = node c "mkl" in
  Alcotest.(check bool) "mkl provides blas here" true
    (List.mem_assoc "blas" mkl.Concrete.provided);
  (* default config keeps netlib-blas *)
  let c = ok ctx "py-numpy" in
  Alcotest.(check bool) "default provider is netlib-blas" true
    (Concrete.node c "netlib-blas" <> None)

let proxy_app_openmp () =
  (* period-accurate: clang 3.5 has no OpenMP, so threaded proxy-app
     builds must reject it while gcc/xl work *)
  let ctx = universe_ctx () in
  ignore (ok ctx "lulesh +openmp %gcc");
  ignore (ok ctx "lulesh +openmp %xl =bgq ^bgq-mpi");
  (match err_of ctx "lulesh +openmp %clang" with
  | Cerror.No_compiler { requested; _ } ->
      Alcotest.(check bool) "openmp feature named" true
        (Astring.String.is_infix ~affix:"openmp" requested)
  | e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e));
  (* without the variant, clang is fine *)
  ignore (ok ctx "lulesh ~openmp %clang")

let universe_census () =
  Alcotest.(check int) "245 packages" 245
    (Repository.count (Universe.repository ()));
  let ctx = universe_ctx () in
  let c = ok ctx "ares" in
  Alcotest.(check int) "ARES DAG is 47 nodes (Fig. 13)" 47
    (Concrete.node_count c);
  (* paper Table 3 families all concretize *)
  List.iter
    (fun config ->
      ignore (ok ctx (Ospack_repo.Pkgs_ares.spec_of_config config)))
    [ `Current; `Previous; `Lite; `Dev ]

let () =
  Alcotest.run "concretize"
    [
      ( "basics",
        [
          Alcotest.test_case "unconstrained root (Figs. 2a/7)" `Quick
            unconstrained_root;
          Alcotest.test_case "recursive constraints (Fig. 2c)" `Quick
            recursive_constraints;
          Alcotest.test_case "version ranges + extrapolation" `Quick
            version_ranges;
          Alcotest.test_case "compiler propagation" `Quick compiler_propagation;
          Alcotest.test_case "architecture propagation" `Quick arch_propagation;
        ] );
      ( "virtuals",
        [
          Alcotest.test_case "provider resolution" `Quick virtual_resolution;
          Alcotest.test_case "versioned interface requirement" `Quick
            versioned_virtual_requirement;
        ] );
      ( "conditionals",
        [
          Alcotest.test_case "when= dependencies" `Quick conditional_dependencies;
          Alcotest.test_case "ROSE-style compiler conditions" `Quick
            compiler_conditional_deps;
        ] );
      ( "failures",
        [
          Alcotest.test_case "error classes" `Quick error_classes;
          Alcotest.test_case "typed errors, never assertions" `Quick
            typed_errors_never_raise;
          Alcotest.test_case "declared conflicts" `Quick declared_conflicts;
          Alcotest.test_case "dependency cycles" `Quick dependency_cycles;
        ] );
      ( "guarantees",
        [
          Alcotest.test_case "determinism and sub-DAG sharing (Fig. 9)" `Quick
            determinism_and_hashes;
          Alcotest.test_case "clause backend solves §4.5" `Quick
            clause_backend_recovers;
          Alcotest.test_case "compiler features (§4.5)" `Quick
            compiler_features;
          Alcotest.test_case "decision explanations" `Quick explain_decisions;
          Alcotest.test_case "greedy blocked path (§4.5)" `Quick
            greedy_blocked_path;
          QCheck_alcotest.to_alcotest satisfies_input_property;
        ] );
      ( "universe",
        [
          Alcotest.test_case "all 245 packages concretize" `Quick
            universe_concretizes;
          Alcotest.test_case "multi-interface providers (mkl)" `Quick
            multi_virtual_provider;
          Alcotest.test_case "proxy apps: OpenMP feature gate" `Quick
            proxy_app_openmp;
          Alcotest.test_case "ARES census (Fig. 13, Table 3)" `Quick
            universe_census;
        ] );
    ]
