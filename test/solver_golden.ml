(* The raw CDCL solver's observable outputs, printed for the goldens
   [solver_cnf.expected] and [solver_reuse.expected]:

     solver_golden.exe cnf    seeded random CNFs near the 3-SAT threshold
                              (10 to 80 variables, about 4.2 clauses per
                              variable), some with empty, unit, duplicated
                              or tautological clauses and some with
                              conflicting units: for each, its outcome
                              (the model in hex, or the sorted core, as its
                              size and digest when it is longer than 8) and
                              its four search counters
     solver_golden.exe reuse  one process solving a big instance, a small
                              one, the big one again, then problems that
                              end while their clauses are loaded (an empty
                              clause, conflicting units) or at level 0
                              before any decision, each followed by a
                              normal solve

   Every random instance is named by its index, so a [reuse] line must
   equal the [cnf] line of the same instance. Regenerate a golden only
   when a change to what the solver decides is intended:
   [dune runtest; dune promote]. *)

module Solver = Ospack_concretize.Solver

let instances = 3000

type problem = {
  nvars : int;
  clauses : (int list * int) list;
  order : int list;
}

(* Instance [i] of the family: its own random state, so any instance can
   be rebuilt on its own. *)
let problem i =
  let rng = Random.State.make [| 30; i |] in
  let int n = Random.State.int rng n in
  let nvars = 10 + int 71 in
  let lit () =
    let v = 1 + int nvars in
    if Random.State.bool rng then v else -v
  in
  (* 3.8 to 4.6 clauses per variable *)
  let nclauses = nvars * (38 + int 9) / 10 in
  let odd = int 4 = 0 in
  let clause () =
    let base = [ lit (); lit (); lit () ] in
    if not odd then base
    else
      match int 24 with
      | 0 -> [ lit () ]
      | 1 | 2 -> (
          (* a duplicated literal *)
          match base with l :: _ -> l :: base | [] -> base)
      | 3 | 4 -> (
          (* a tautology *)
          match base with l :: _ -> -l :: base | [] -> base)
      | 5 | 6 -> base @ [ lit (); lit () ]
      | 7 -> base @ base
      | _ -> base
  in
  let clauses = List.init nclauses (fun _ -> clause ()) in
  (* one instance in 40 holds an empty clause, one in 30 two conflicting
     units *)
  let clauses =
    if int 40 = 0 then
      let k = int nclauses in
      List.filteri (fun j _ -> j < k) clauses
      @ ([] :: List.filteri (fun j _ -> j >= k) clauses)
    else clauses
  in
  let clauses =
    if int 30 = 0 then
      let v = 1 + int nvars in
      clauses @ [ [ v ]; [ -v ] ]
    else clauses
  in
  (* origins are clause positions, except for a few blocking-style -1 *)
  let clauses =
    List.mapi (fun k c -> (c, if int 40 = 0 then -1 else k)) clauses
  in
  (* the decision order: a random subset of the variables, random phases,
     shuffled; the rest default to false *)
  let order =
    List.filter_map
      (fun v ->
        if int 4 = 0 then None
        else Some (if Random.State.bool rng then v else -v))
      (List.init nvars (fun v -> v + 1))
    |> List.map (fun l -> (Random.State.bits rng, l))
    |> List.sort compare |> List.map snd
  in
  { nvars; clauses; order }

let line name p =
  let outcome, s =
    Solver.solve ~nvars:p.nvars ~clauses:p.clauses ~order:p.order ()
  in
  let answer =
    match outcome with
    | Solver.Sat model ->
        (* the model as hex, four variables to a digit *)
        "sat "
        ^ String.init
            ((p.nvars + 3) / 4)
            (fun d ->
              let bit k =
                let v = (4 * d) + k + 1 in
                if v <= p.nvars && model.(v) then 1 lsl k else 0
              in
              "0123456789abcdef".[bit 0 lor bit 1 lor bit 2 lor bit 3])
    | Solver.Unsat core ->
        (* a short sorted core in full, a longer one as its size and
           digest *)
        let sorted =
          String.concat "," (List.map string_of_int (List.sort compare core))
        in
        if List.length core <= 8 then "unsat " ^ sorted
        else
          Printf.sprintf "unsat %d:%s" (List.length core)
            (String.sub (Digest.to_hex (Digest.string sorted)) 0 16)
  in
  Printf.printf "%s n=%d m=%d | %s | d=%d p=%d c=%d r=%d\n" name p.nvars
    (List.length p.clauses) answer s.Solver.s_decisions s.Solver.s_propagations
    s.Solver.s_conflicts s.Solver.s_restarts

let cnf () =
  for i = 0 to instances - 1 do
    line (Printf.sprintf "#%d" i) (problem i)
  done

(* hand-made problems that end while their clauses are loaded *)
let empty_clause =
  {
    nvars = 4;
    clauses = [ ([ 1; 2 ], 0); ([], 1); ([ -3; 4 ], 2) ];
    order = [ 1 ];
  }

let conflicting_units =
  {
    nvars = 5;
    clauses = [ ([ 1; -2 ], 0); ([ 3 ], 1); ([ 2; 4 ], 2); ([ -3 ], 3) ];
    order = [ 2; 1 ];
  }

let implied_conflict =
  {
    nvars = 3;
    clauses = [ ([ 1 ], 7); ([ -1; 2 ], 8); ([ -2 ], 9); ([ 3; 1 ], 10) ];
    order = [];
  }

let reuse () =
  let sized pred =
    let rec find i = if pred (problem i) then i else find (i + 1) in
    find 0
  in
  let big = sized (fun p -> p.nvars >= 75 && List.length p.clauses > 300) in
  let small = sized (fun p -> p.nvars <= 12) in
  let next = sized (fun p -> p.nvars >= 40 && p.nvars < 60) in
  let solve i = line (Printf.sprintf "#%d" i) (problem i) in
  solve big;
  solve small;
  solve big;
  line "empty-clause" empty_clause;
  solve next;
  line "conflicting-units" conflicting_units;
  solve small;
  line "implied-conflict" implied_conflict;
  solve big

let () =
  match Sys.argv with
  | [| _; "cnf" |] -> cnf ()
  | [| _; "reuse" |] -> reuse ()
  | _ ->
      prerr_endline "usage: solver_golden.exe cnf|reuse";
      exit 2
