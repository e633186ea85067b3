(* Differential testing of the concretizer backends (the backend-agnostic
   concretizer's cornerstone): the greedy fixed point vs the complete
   clause solver, over the 245-package universe and a constraint battery.
   The contract under test:
   - whenever greedy succeeds, both backends return byte-identical results
     (round 0 of the clause backend IS the greedy run);
   - when greedy fails but a solution exists (the paper's §4.5 hwloc
     pattern), the clause backend finds it by unit propagation (no
     solver conflicts), and the result satisfies the query;
   - when no solution exists, both fail with the same typed error and the
     clause backend renders a human-readable unsat core. *)

module Repository = Ospack_package.Repository
module Package = Ospack_package.Package
module Concretizer = Ospack_concretize.Concretizer
module Backends = Ospack_concretize.Backends
module Clauses = Ospack_concretize.Clauses
module Solver = Ospack_concretize.Solver
module I = Ospack_concretize.Concretizer_intf
module Cerror = Ospack_concretize.Cerror
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Json = Ospack_json.Json
module Version = Ospack_version.Version
module Config = Ospack_config.Config
module Universe = Ospack_repo.Universe

let universe_ctx () =
  Concretizer.make_ctx ~config:Universe.default_config
    ~compilers:Universe.compilers (Universe.repository ())

let parse s =
  match Parser.parse s with
  | Ok a -> a
  | Error e -> Alcotest.failf "%s: parse error: %s" s e

(* byte-identical: JSON serialization plus the rendered tree *)
let render c = Json.to_string (Concrete.to_json c) ^ "\n" ^ Concrete.tree_string c

(* ------------------------------------------------------------------ *)
(* the raw CDCL solver                                                 *)

let solver_sat () =
  (* (x1 | x2) & (-x1 | x2) -> x2 true in any model *)
  let outcome, _ =
    Solver.solve ~nvars:2
      ~clauses:[ ([ 1; 2 ], 0); ([ -1; 2 ], 1) ]
      ~order:[ 1; 2 ] ()
  in
  match outcome with
  | Solver.Sat model -> Alcotest.(check bool) "x2 assigned true" true model.(2)
  | Solver.Unsat _ -> Alcotest.fail "expected SAT"

let solver_unsat_core () =
  (* x1 & (x1 -> x2) & -x2: every clause participates in the conflict *)
  let outcome, _ =
    Solver.solve ~nvars:2
      ~clauses:[ ([ 1 ], 10); ([ -1; 2 ], 11); ([ -2 ], 12) ]
      ~order:[ 1; 2 ] ()
  in
  match outcome with
  | Solver.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solver.Unsat core ->
      Alcotest.(check (list int)) "core names all three origins" [ 10; 11; 12 ]
        (List.sort_uniq compare core)

let solver_propagation_stats () =
  let _, stats =
    Solver.solve ~nvars:3
      ~clauses:[ ([ 1 ], 0); ([ -1; 2 ], 1); ([ -2; 3 ], 2) ]
      ~order:[ 1; 2; 3 ] ()
  in
  Alcotest.(check bool) "propagations counted" true
    (stats.Solver.s_propagations >= 2)

(* A literal outside 1..nvars is refused, and the solve after it starts
   from a clean slate. *)
let solver_bad_literal () =
  let refused clauses order =
    match Solver.solve ~nvars:2 ~clauses ~order () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "variable above nvars" true
    (refused [ ([ 1; 3 ], 0) ] []);
  Alcotest.(check bool) "literal 0" true (refused [ ([ 0 ], 0) ] []);
  Alcotest.(check bool) "order above nvars" true (refused [] [ -3 ]);
  solver_unsat_core ()

(* Checked by brute force over every assignment of at most 12
   variables: a model satisfies every clause, and the clauses a core
   names are unsatisfiable on their own. *)
let solver_brute_force =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 12 in
      let lit =
        map2 (fun v pos -> if pos then v else -v) (int_range 1 nvars) bool
      in
      let clause =
        frequency
          [ (1, return []); (15, list_size (int_range 1 2) lit);
            (150, list_repeat 3 lit); (50, list_size (int_range 4 5) lit) ]
      in
      (* up to about 6 clauses per variable: past the 3-SAT threshold *)
      let* clauses = list_size (int_range 0 (6 * nvars)) clause in
      let* order = list_size (int_range 0 nvars) lit in
      return (nvars, clauses, order))
  in
  let print (nvars, clauses, order) =
    let lits l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
    Printf.sprintf "nvars=%d clauses=%s order=%s" nvars
      (String.concat " " (List.map lits clauses))
      (lits order)
  in
  let satisfies value clause =
    List.exists (fun l -> value (abs l) = (l > 0)) clause
  in
  let satisfiable nvars clauses =
    let rec from bits =
      bits < 1 lsl nvars
      && (List.for_all
            (satisfies (fun v -> bits land (1 lsl (v - 1)) <> 0))
            clauses
         || from (bits + 1))
    in
    from 0
  in
  QCheck.Test.make ~count:1000
    ~name:"models satisfy every clause, cores are unsatisfiable"
    (QCheck.make ~print gen)
    (fun (nvars, clauses, order) ->
      let clauses = List.mapi (fun k c -> (c, k)) clauses in
      match fst (Solver.solve ~nvars ~clauses ~order ()) with
      | Solver.Sat model ->
          List.for_all (fun (c, _) -> satisfies (Array.get model) c) clauses
      | Solver.Unsat core ->
          not
            (satisfiable nvars
               (List.filter_map
                  (fun (c, k) -> if List.mem k core then Some c else None)
                  clauses)))

(* ------------------------------------------------------------------ *)
(* differential agreement                                              *)

let check_agreement ctx spec =
  let ast = parse spec in
  let g = Backends.solve Backends.Greedy ctx ast in
  let c = Backends.solve Backends.Clauses ctx ast in
  match (g, c) with
  | Ok gc, Ok cc ->
      if render gc <> render cc then
        Alcotest.failf "%s: backends disagree" spec
  | Error _, Error _ -> ()
  | Ok _, Error e ->
      Alcotest.failf "%s: clauses failed where greedy succeeded: %s" spec
        (Cerror.to_string e)
  | Error _, Ok cc ->
      (* a true divergence: legal only when the model satisfies the query *)
      if not (Concrete.satisfies cc ast) then
        Alcotest.failf "%s: divergent clause model violates the query" spec

let differential_universe () =
  let ctx = universe_ctx () in
  List.iter
    (fun name ->
      let spec =
        (* vendor MPIs only exist on their machines *)
        match name with
        | "bgq-mpi" -> "bgq-mpi =bgq %gcc"
        | "cray-mpi" -> "cray-mpi =cray_xe6 %gcc"
        | n -> n
      in
      check_agreement ctx spec)
    (Repository.package_names (Universe.repository ()))

let differential_battery () =
  let ctx = universe_ctx () in
  let packages =
    [ "libelf"; "libpng"; "mpileaks"; "libdwarf"; "python"; "dyninst";
      "lapack"; "callpath"; "hdf5"; "py-numpy" ]
  in
  let forms =
    [ ""; " %gcc"; " %intel"; " @1:"; " ^mvapich2"; " ^openmpi"; " ^mpi@2:" ]
  in
  List.iter
    (fun p -> List.iter (fun f -> check_agreement ctx (p ^ f)) forms)
    packages

(* the cornerstone as a property: agreement is byte-identical on every
   greedy-solvable random spec *)
let differential_property =
  let ctx = lazy (universe_ctx ()) in
  let gen =
    QCheck.Gen.(
      let pkg =
        oneofl
          [ "mpileaks"; "callpath"; "dyninst"; "libdwarf"; "libelf"; "hdf5";
            "boost"; "python"; "py-numpy"; "hypre"; "samrai"; "gperftools" ]
      in
      let constraint_ =
        oneofl [ ""; "+debug"; "~debug"; "%gcc"; "%gcc@4.7.3"; "@1:" ]
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
  QCheck.Test.make ~count:150
    ~name:"clause backend agrees byte-identically when greedy succeeds"
    (QCheck.make ~print:(fun s -> s) gen)
    (fun spec ->
      match Parser.parse spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok ast -> (
          let ctx = Lazy.force ctx in
          match Backends.solve Backends.Greedy ctx ast with
          | Error _ -> true
          | Ok gc -> (
              match Backends.solve Backends.Clauses ctx ast with
              | Error _ -> false
              | Ok cc -> render gc = render cc)))

(* ------------------------------------------------------------------ *)
(* §4.5 divergence: greedy dead-ends, the complete backend solves      *)

let hwloc_divergence () =
  let ctx = universe_ctx () in
  let ast = parse "mpileaks ^mpi+hwloc ^hwloc@1.9" in
  (* greedy commits to the site-ranked provider (mvapich2 -> hwloc@1.8)
     and dead-ends against the user's hwloc@1.9 *)
  (match Backends.solve Backends.Greedy ctx ast with
  | Ok _ -> Alcotest.fail "greedy should dead-end on the hwloc pattern"
  | Error (Cerror.Conflict _) -> ()
  | Error e -> Alcotest.failf "wrong greedy error: %s" (Cerror.to_string e));
  let outcome = Backends.solve_full Backends.Clauses ctx ast in
  match outcome.I.oc_result with
  | Error e -> Alcotest.failf "clauses failed: %s" (Cerror.to_string e)
  | Ok c ->
      Alcotest.(check bool) "model satisfies the query" true
        (Concrete.satisfies c ast);
      Alcotest.(check bool) "provider flipped to openmpi" true
        (Concrete.node c "openmpi" <> None);
      (match Concrete.node c "hwloc" with
      | Some n ->
          Alcotest.(check string) "hwloc pinned to 1.9" "1.9"
            (Version.to_string n.Concrete.version)
      | None -> Alcotest.fail "hwloc missing from the DAG");
      (* solved by unit propagation over the encoding, not by
         chronological backtracking: no solver conflicts, and exactly
         one oracle replay on top of round 0 *)
      Alcotest.(check int) "no solver conflicts"
        0 outcome.I.oc_stats.I.st_conflicts;
      Alcotest.(check int) "round 0 + one oracle replay" 2
        outcome.I.oc_stats.I.st_runs

(* an unconditional arch conflict is a clause exactly when every node's
   arch is statically the site default; a user-pinned arch leaves it to
   the greedy oracle *)
let arch_conflicts_encoded () =
  let ctx = universe_ctx () in
  let reasons spec =
    let enc = Clauses.encode ctx (parse spec) in
    List.map (fun (_, o) -> Clauses.reason enc o) (Clauses.clause_list enc)
  in
  let bgq = "bgq-mpi conflicts with =linux-x86_64" in
  Alcotest.(check bool) "default arch: bgq-mpi excluded" true
    (List.mem bgq (reasons "gerris"));
  Alcotest.(check bool) "pinned arch: left to the oracle" false
    (List.mem bgq (reasons "gerris =bgq"))

(* ------------------------------------------------------------------ *)
(* unsat cores and conflict explanations (satellite 6)                 *)

let unsat_core_golden () =
  let ctx = universe_ctx () in
  let ast = parse "gerris ^mpich@1.4" in
  let outcome = Backends.solve_full Backends.Clauses ctx ast in
  (match outcome.I.oc_result with
  | Ok _ -> Alcotest.fail "gerris ^mpich@1.4 must be unsatisfiable"
  | Error _ -> ());
  match Backends.explanation Backends.Clauses outcome with
  | None -> Alcotest.fail "failed outcome must carry an explanation"
  | Some expl ->
      Alcotest.(check string) "rendered unsat core"
        "unsat core (clauses backend):\n\
         \  - the user spec requests gerris\n\
         \  - the user spec requests mpich@1.4\n\
         \  - ^mpich must be pulled in as a dependency or chosen as a \
         provider\n\
         \  - mpich@1.4.1 cannot provide mpi@2:\n\
         \  - mpich@1.4 cannot provide mpi@2:\n\
         \  - mpich must take one of its known versions"
        (Cerror.explain_to_string expl)

let greedy_pseudo_core () =
  let ctx = universe_ctx () in
  let ast = parse "gerris ^mpich@1.4" in
  let outcome = Backends.solve_full Backends.Greedy ctx ast in
  match Backends.explanation Backends.Greedy outcome with
  | None -> Alcotest.fail "failed outcome must carry an explanation"
  | Some expl ->
      let rendered = Cerror.explain_to_string expl in
      Alcotest.(check bool) "greedy heading" true
        (Astring.String.is_prefix
           ~affix:"blocked decision path (greedy backend):" rendered);
      Alcotest.(check bool) "shows the blocked decision" true
        (Astring.String.is_infix ~affix:"virtual mpi -> mpich" rendered);
      Alcotest.(check bool) "ends with the typed error" true
        (Astring.String.is_infix ~affix:"blocked: conflicting version"
           rendered)

(* both backends report the same typed error on true conflicts *)
let unsat_same_typed_error () =
  let ctx = universe_ctx () in
  List.iter
    (fun spec ->
      let ast = parse spec in
      match
        ( Backends.solve Backends.Greedy ctx ast,
          Backends.solve Backends.Clauses ctx ast )
      with
      | Error ge, Error ce ->
          Alcotest.(check string) (spec ^ ": same typed error")
            (Cerror.to_string ge) (Cerror.to_string ce)
      | _ -> Alcotest.failf "%s: expected both backends to fail" spec)
    [ "gerris ^mpich@1.4"; "libelf@0.9:0.10"; "dyninst ^libelf@0.9:0.10" ]

(* satellite 2: No_version lists nearest-miss candidates with the
   excluding constraint *)
let no_version_nearest () =
  let ctx = universe_ctx () in
  match Concretizer.concretize ctx (parse "dyninst ^libelf@0.9:0.10") with
  | Ok _ -> Alcotest.fail "expected No_version"
  | Error (Cerror.No_version { package; constraint_; nearest }) ->
      Alcotest.(check string) "package" "libelf" package;
      Alcotest.(check string) "constraint" "0.9:0.10" constraint_;
      Alcotest.(check bool) "newest candidate listed" true
        (List.mem_assoc "0.8.13" nearest);
      Alcotest.(check string) "why excluded"
        "excluded by @0.9:0.10 (the user spec)"
        (List.assoc "0.8.13" nearest);
      let rendered = Cerror.to_string (Cerror.No_version { package; constraint_; nearest }) in
      Alcotest.(check bool) "rendering lists candidates" true
        (Astring.String.is_infix ~affix:"candidate versions:" rendered)
  | Error e -> Alcotest.failf "wrong error: %s" (Cerror.to_string e)

(* ------------------------------------------------------------------ *)
(* encoding internals                                                  *)

let encoding_shape () =
  let ctx = universe_ctx () in
  let enc = Clauses.encode ctx (parse "mpileaks ^mpi+hwloc ^hwloc@1.9") in
  Alcotest.(check bool) "has variables" true (Clauses.nvars enc > 0);
  Alcotest.(check bool) "has clauses" true (Clauses.clause_list enc <> []);
  (* decision order covers every variable exactly once *)
  let ord = Clauses.order enc in
  Alcotest.(check int) "order covers all vars" (Clauses.nvars enc)
    (List.length (List.sort_uniq compare (List.map abs ord)));
  (* provider variables come first (optimization: provider choice
     dominates the result's shape) *)
  (match ord with
  | first :: _ ->
      let k = Clauses.var_to_string enc (abs first) in
      Alcotest.(check bool) "providers decided first" true
        (Astring.String.is_prefix ~affix:"Prov(" k)
  | [] -> Alcotest.fail "empty order");
  (* every clause's origin renders to a non-empty reason *)
  List.iter
    (fun (_, origin) ->
      if origin >= 0 then
        Alcotest.(check bool) "reason non-empty" true
          (String.length (Clauses.reason enc origin) > 0))
    (Clauses.clause_list enc)

let stats_surface () =
  let ctx = universe_ctx () in
  let outcome = Backends.solve_full Backends.Greedy ctx (parse "mpileaks") in
  Alcotest.(check bool) "greedy decisions counted" true
    (outcome.I.oc_stats.I.st_decisions > 0);
  Alcotest.(check int) "one greedy run" 1 outcome.I.oc_stats.I.st_runs;
  let line = I.stats_to_string outcome.I.oc_stats in
  Alcotest.(check bool) "stats line mentions decisions" true
    (Astring.String.is_infix ~affix:"decisions=" line);
  (* backend naming round-trips *)
  List.iter
    (fun b ->
      Alcotest.(check bool) "backend name round-trips" true
        (Backends.of_string (Backends.to_string b) = Some b))
    Backends.all

let () =
  Alcotest.run "solver"
    [
      ( "cdcl",
        [
          Alcotest.test_case "SAT with propagation" `Quick solver_sat;
          Alcotest.test_case "UNSAT core extraction" `Quick solver_unsat_core;
          Alcotest.test_case "propagation stats" `Quick
            solver_propagation_stats;
          Alcotest.test_case "literals out of range" `Quick
            solver_bad_literal;
          QCheck_alcotest.to_alcotest solver_brute_force;
        ] );
      ( "differential",
        [
          Alcotest.test_case "whole universe agrees" `Quick
            differential_universe;
          Alcotest.test_case "constraint battery agrees" `Quick
            differential_battery;
          QCheck_alcotest.to_alcotest differential_property;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "§4.5 hwloc: greedy unsat, clauses sat" `Quick
            hwloc_divergence;
          Alcotest.test_case "arch conflicts encoded when certain" `Quick
            arch_conflicts_encoded;
        ] );
      ( "explanations",
        [
          Alcotest.test_case "unsat core golden" `Quick unsat_core_golden;
          Alcotest.test_case "greedy pseudo-core" `Quick greedy_pseudo_core;
          Alcotest.test_case "same typed error on true conflicts" `Quick
            unsat_same_typed_error;
          Alcotest.test_case "No_version nearest-miss candidates" `Quick
            no_version_nearest;
        ] );
      ( "internals",
        [
          Alcotest.test_case "encoding shape" `Quick encoding_shape;
          Alcotest.test_case "stats and naming surface" `Quick stats_surface;
        ] );
    ]
