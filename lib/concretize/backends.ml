module Obs = Ospack_obs.Obs
module I = Concretizer_intf

type t = Greedy | Clauses

let to_string = function Greedy -> "greedy" | Clauses -> "clauses"

let of_string = function
  | "greedy" -> Some Greedy
  | "clauses" -> Some Clauses
  | _ -> None

let all = [ Greedy; Clauses ]

let mirror src dst =
  List.iter (fun (k, n) -> Obs.count dst k n) (Obs.counters src)

(* One greedy run. An enabled ctx.obs gets the run's counter totals,
   recorded against a fresh sink so the run's spans and annotations stay
   out of ctx.obs; against a disabled one the run records nothing. *)
let greedy_run ?forced (ctx : I.ctx) ast =
  let obs = if Obs.enabled ctx.obs then Obs.create () else Obs.disabled in
  let result, trace, iterations =
    Concretizer.run_counted ~obs ?forced ctx [] ast
  in
  mirror obs ctx.obs;
  let stats = { I.empty_stats with st_iterations = iterations; st_runs = 1 } in
  (result, trace, stats)

(* a failed greedy run's conflict chain: the decisions it took, then
   what blocked it *)
let blocked_path trace e =
  List.map Concretizer.explain_decision trace
  @ [ "blocked: " ^ Cerror.to_string e ]

let greedy (ctx : I.ctx) ast =
  let result, trace, stats = greedy_run ctx ast in
  let stats = { stats with I.st_decisions = List.length trace } in
  let core =
    match result with Ok _ -> [] | Error e -> blocked_path trace e
  in
  { I.oc_result = result; oc_stats = stats; oc_core = core }

let max_rounds = 64

let solver_stats (s : Solver.stats) =
  {
    I.empty_stats with
    st_decisions = s.Solver.s_decisions;
    st_propagations = s.Solver.s_propagations;
    st_conflicts = s.Solver.s_conflicts;
    st_restarts = s.Solver.s_restarts;
  }

(* Deletion-based core minimization over reason groups: drop a whole
   reason's clauses, re-solve, keep the drop if still UNSAT. Groups are
   tried in the order of their reasons. Bounded to small cores; the
   unminimized core is already valid. *)
let minimize enc blocking core_ids =
  let nvars = Clauses.nvars enc in
  let order = Clauses.order enc in
  (* one origin per reason, in the order of the reasons *)
  let reps =
    List.filter_map
      (fun o -> if o < 0 then None else Some (Clauses.reason enc o, o))
      core_ids
    |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
  in
  if List.length reps > 25 then core_ids
  else begin
    let group = Clauses.reason_group enc in
    let groups = List.map (fun (_, o) -> group o) reps in
    let removed = Hashtbl.create 8 in
    let current = ref core_ids in
    List.iter
      (fun g ->
        let cls =
          List.filter
            (fun (_, o) ->
              let h = group o in
              h <> g && not (Hashtbl.mem removed h))
            (Clauses.clause_list enc)
          @ blocking
        in
        match fst (Solver.solve ~nvars ~clauses:cls ~order ()) with
        | Solver.Unsat core' ->
            Hashtbl.add removed g ();
            current := core'
        | Solver.Sat _ -> ())
      groups;
    !current
  end

let clauses (ctx : I.ctx) ast =
  (* round 0: pure greedy. When greedy succeeds the two backends agree
     byte-identically, and that answer is preference-optimal (greedy
     takes the best-ranked candidate at every decision point). *)
  let r0, trace0, stats0 = greedy_run ctx ast in
  match r0 with
  | Ok c ->
      {
        I.oc_result = Ok c;
        oc_stats = { stats0 with I.st_decisions = List.length trace0 };
        oc_core = [];
      }
  | Error e0 -> (
      match Clauses.encode ctx ast with
      | exception _ ->
          (* the encoder could not express the problem; report the
             greedy outcome rather than failing opaquely *)
          {
            I.oc_result = Error e0;
            oc_stats = stats0;
            oc_core = blocked_path trace0 e0;
          }
      | enc ->
          let base_clauses = Clauses.clause_list enc in
          let rec refine blocking stats round =
            if round > max_rounds then
              {
                I.oc_result = Error e0;
                oc_stats = stats;
                oc_core =
                  [
                    Printf.sprintf
                      "exhausted %d candidate models without one the greedy \
                       oracle accepts"
                      max_rounds;
                  ];
              }
            else
              let sobs = Obs.create () in
              let outcome, sstats =
                Solver.solve ~obs:sobs ~nvars:(Clauses.nvars enc)
                  ~clauses:(base_clauses @ blocking)
                  ~order:(Clauses.order enc) ()
              in
              mirror sobs ctx.obs;
              let stats = I.add_stats stats (solver_stats sstats) in
              match outcome with
              | Solver.Unsat core_ids ->
                  let core_ids = minimize enc blocking core_ids in
                  {
                    I.oc_result = Error e0;
                    oc_stats = stats;
                    oc_core = Clauses.render_core enc core_ids;
                  }
              | Solver.Sat model -> (
                  let forced = Clauses.decisions_of_model enc model in
                  let r, _trace, ostats = greedy_run ~forced ctx ast in
                  let stats = I.add_stats stats ostats in
                  match r with
                  | Ok c ->
                      { I.oc_result = Ok c; oc_stats = stats; oc_core = [] }
                  | Error _ ->
                      (* the oracle refutes this model and every superset
                         of its provider/version choices *)
                      let block =
                        ( List.map (fun l -> -l)
                            (Clauses.blocking_lits enc model),
                          -1 )
                      in
                      refine (block :: blocking) stats (round + 1))
          in
          refine [] stats0 1)

let solve_full = function Greedy -> greedy | Clauses -> clauses
let solve backend ctx ast = (solve_full backend ctx ast).I.oc_result

let explanation backend (outcome : I.outcome) =
  match outcome.I.oc_result with
  | Ok _ -> None
  | Error e ->
      Some
        {
          Cerror.ex_backend = to_string backend;
          ex_error = e;
          ex_chain = outcome.I.oc_core;
        }
