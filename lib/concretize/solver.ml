module Obs = Ospack_obs.Obs
module IntSet = Set.Make (Int)

type outcome = Sat of bool array | Unsat of int list

type stats = {
  s_decisions : int;
  s_propagations : int;
  s_conflicts : int;
  s_restarts : int;
}

(* Growable array (the stdlib gains Dynarray only in 5.2). *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create ?(capacity = 4) dummy =
    { data = Array.make (max 4 capacity) dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * Array.length v.data) v.dummy in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let len v = v.len
  let shrink v n = v.len <- n
end

type clause = { lits : int array; origins : IntSet.t }

exception Found_sat
exception Found_unsat of IntSet.t

let dummy_clause = { lits = [||]; origins = IntSet.empty }

(* the watch list of every literal nothing watches yet: one shared empty
   vector, replaced by a fresh one on the literal's first push *)
let no_watches : int Vec.t = Vec.create 0

(* sorted and without duplicates; an already strictly ascending list
   (most encoder clauses) is kept as it is *)
let normalize lits =
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  if ascending lits then lits else List.sort_uniq Int.compare lits

let rec mem_int x = function [] -> false | y :: rest -> x = y || mem_int x rest

(* does [all] hold the negation of some literal of the second list *)
let rec tautology all = function
  | [] -> false
  | l :: rest -> mem_int (-l) all || tautology all rest

let solve ?(obs = Obs.disabled) ~nvars ~clauses:input ~order () =
  (* assignment state *)
  let assign = Array.make (nvars + 1) 0 in
  (* 0 unassigned, 1 true, -1 false *)
  let level = Array.make (nvars + 1) 0 in
  let reason = Array.make (nvars + 1) (-1) in
  let var_origins = Array.make (nvars + 1) None in
  (* transitive origin closure of a level-0 assignment, computed on
     demand (see [level0_origins]) *)
  let trail = Array.make (nvars + 1) 0 in
  let trail_sz = ref 0 in
  let trail_lim : int Vec.t = Vec.create 0 in
  let qhead = ref 0 in
  let clauses : clause Vec.t =
    Vec.create ~capacity:(List.length input) dummy_clause
  in
  (* watches.(lit_index l) = indices of clauses currently watching l *)
  let watches : int Vec.t array = Array.make (2 * (nvars + 1)) no_watches in
  let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1 in
  let watch l ci =
    let i = lit_index l in
    if watches.(i) == no_watches then watches.(i) <- Vec.create 0;
    Vec.push watches.(i) ci
  in
  let lit_value l =
    let a = assign.(abs l) in
    if a = 0 then 0 else if (l > 0) = (a > 0) then 1 else -1
  in
  let decision_level () = Vec.len trail_lim in
  let n_decisions = ref 0 in
  let n_propagations = ref 0 in
  let n_conflicts = ref 0 in
  let n_restarts = ref 0 in

  let enqueue l ci =
    let v = abs l in
    assign.(v) <- (if l > 0 then 1 else -1);
    level.(v) <- decision_level ();
    reason.(v) <- ci;
    trail.(!trail_sz) <- l;
    incr trail_sz
  in

  (* The origins of every clause in [v]'s level-0 implication graph:
     its reason's and, transitively, those of the other literals' level-0
     assignments. Level 0 is never undone, so each set is computed once. *)
  let rec level0_origins v =
    match var_origins.(v) with
    | Some o -> o
    | None ->
        let c = Vec.get clauses reason.(v) in
        let o =
          Array.fold_left
            (fun o q ->
              if abs q <> v then IntSet.union o (level0_origins (abs q)) else o)
            c.origins c.lits
        in
        var_origins.(v) <- Some o;
        o
  in

  let cancel_until lvl =
    if decision_level () > lvl then begin
      let bound = Vec.get trail_lim lvl in
      for i = !trail_sz - 1 downto bound do
        let v = abs trail.(i) in
        assign.(v) <- 0;
        reason.(v) <- -1
      done;
      trail_sz := bound;
      qhead := bound;
      Vec.shrink trail_lim lvl
    end
  in

  (* Returns the index of the conflicting clause, or -1. *)
  let propagate () =
    let confl = ref (-1) in
    while !confl < 0 && !qhead < !trail_sz do
      let p = trail.(!qhead) in
      incr qhead;
      incr n_propagations;
      let wl = watches.(lit_index (-p)) in
      let n = Vec.len wl in
      let i = ref 0 in
      let j = ref 0 in
      while !i < n do
        let ci = Vec.get wl !i in
        incr i;
        if !confl >= 0 then begin
          (* conflict already found this pass: keep remaining watches *)
          Vec.set wl !j ci;
          incr j
        end
        else begin
          let c = Vec.get clauses ci in
          let lits = c.lits in
          let false_lit = -p in
          if lits.(0) = false_lit then begin
            lits.(0) <- lits.(1);
            lits.(1) <- false_lit
          end;
          if lit_value lits.(0) = 1 then begin
            Vec.set wl !j ci;
            incr j
          end
          else begin
            let len = Array.length lits in
            let k = ref 2 in
            while !k < len && lit_value lits.(!k) = -1 do
              incr k
            done;
            if !k < len then begin
              (* found a new watch; clause leaves this list *)
              lits.(1) <- lits.(!k);
              lits.(!k) <- false_lit;
              watch lits.(1) ci
            end
            else if lit_value lits.(0) = -1 then begin
              Vec.set wl !j ci;
              incr j;
              confl := ci;
              qhead := !trail_sz
            end
            else begin
              Vec.set wl !j ci;
              incr j;
              enqueue lits.(0) ci
            end
          end
        end
      done;
      Vec.shrink wl !j
    done;
    !confl
  in

  (* 1-UIP conflict analysis. Returns (learned lits, uip first;
     backjump level; union of origins of every clause resolved). *)
  let seen = Array.make (nvars + 1) false in
  let analyze confl =
    let learnt = ref [] in
    let origins = ref IntSet.empty in
    let counter = ref 0 in
    let p = ref 0 in
    let ci = ref confl in
    let index = ref (!trail_sz - 1) in
    let btlevel = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let c = Vec.get clauses !ci in
      origins := IntSet.union !origins c.origins;
      Array.iter
        (fun q ->
          if q <> !p then begin
            let v = abs q in
            if level.(v) = 0 then
              (* dropped from the learned clause, but its level-0
                 justification is part of the refutation *)
              origins := IntSet.union !origins (level0_origins v)
            else if not seen.(v) then begin
              seen.(v) <- true;
              if level.(v) = decision_level () then incr counter
              else begin
                learnt := q :: !learnt;
                if level.(v) > !btlevel then btlevel := level.(v)
              end
            end
          end)
        c.lits;
      while not seen.(abs trail.(!index)) do
        decr index
      done;
      p := trail.(!index);
      decr index;
      seen.(abs !p) <- false;
      decr counter;
      if !counter = 0 then continue_ := false else ci := reason.(abs !p)
    done;
    (* only the learnt clause's lower-level literals are still marked *)
    List.iter (fun q -> seen.(abs q) <- false) !learnt;
    (- !p :: !learnt, !btlevel, !origins)
  in

  (* conflict at level 0: walk level-0 justifications *)
  let final_origins confl =
    let c = Vec.get clauses confl in
    let o = ref c.origins in
    Array.iter (fun q -> o := IntSet.union !o (level0_origins (abs q))) c.lits;
    !o
  in

  let add_clause_store lits origins =
    let ci = Vec.len clauses in
    Vec.push clauses { lits; origins };
    if Array.length lits >= 2 then begin
      watch lits.(0) ci;
      watch lits.(1) ci
    end;
    ci
  in

  let assert_unit l ci =
    match lit_value l with
    | 1 -> ()
    | 0 -> enqueue l ci
    | _ ->
        let c = Vec.get clauses ci in
        raise (Found_unsat (IntSet.union c.origins (level0_origins (abs l))))
  in

  let record learnt btlevel origins =
    match learnt with
    | [] -> raise (Found_unsat origins)
    | [ l ] ->
        cancel_until 0;
        let ci = add_clause_store [| l |] origins in
        assert_unit l ci
    | l :: _ ->
        cancel_until btlevel;
        let arr = Array.of_list learnt in
        (* watch invariant: position 1 holds a highest-level literal *)
        let mi = ref 1 in
        for k = 2 to Array.length arr - 1 do
          if level.(abs arr.(k)) > level.(abs arr.(!mi)) then mi := k
        done;
        let t = arr.(1) in
        arr.(1) <- arr.(!mi);
        arr.(!mi) <- t;
        let ci = add_clause_store arr origins in
        enqueue l ci
  in

  let order_arr = Array.of_list order in
  let decide_next () =
    let rec scan i =
      if i >= Array.length order_arr then
        let rec scanv v =
          if v > nvars then None
          else if assign.(v) = 0 then Some (-v)
          else scanv (v + 1)
        in
        scanv 1
      else
        let l = order_arr.(i) in
        if assign.(abs l) = 0 then Some l else scan (i + 1)
    in
    scan 0
  in

  let result =
    try
      (* load the problem *)
      List.iter
        (fun (lits, origin) ->
          let lits = normalize lits in
          if not (tautology lits lits) then
            match lits with
            | [] -> raise (Found_unsat (IntSet.singleton origin))
            | [ l ] ->
                let ci =
                  add_clause_store [| l |] (IntSet.singleton origin)
                in
                assert_unit l ci
            | _ ->
                ignore
                  (add_clause_store (Array.of_list lits)
                     (IntSet.singleton origin)))
        input;
      let budget = ref 100 in
      let since_restart = ref 0 in
      let rec search () =
        let confl = propagate () in
        if confl >= 0 then begin
          incr n_conflicts;
          if decision_level () = 0 then
            raise (Found_unsat (final_origins confl));
          let learnt, btlevel, origins = analyze confl in
          record learnt btlevel origins;
          incr since_restart;
          if !since_restart >= !budget then begin
            incr n_restarts;
            budget := !budget * 3 / 2;
            since_restart := 0;
            cancel_until 0
          end;
          search ()
        end
        else
          match decide_next () with
          | None -> raise Found_sat
          | Some l ->
              incr n_decisions;
              Vec.push trail_lim !trail_sz;
              enqueue l (-1);
              search ()
      in
      search ()
    with
    | Found_sat ->
        let model = Array.make (nvars + 1) false in
        for v = 1 to nvars do
          model.(v) <- assign.(v) > 0
        done;
        Sat model
    | Found_unsat origins -> Unsat (IntSet.elements origins)
  in
  Obs.count obs "solver.decisions" !n_decisions;
  Obs.count obs "solver.propagations" !n_propagations;
  Obs.count obs "solver.conflicts" !n_conflicts;
  Obs.count obs "solver.restarts" !n_restarts;
  ( result,
    {
      s_decisions = !n_decisions;
      s_propagations = !n_propagations;
      s_conflicts = !n_conflicts;
      s_restarts = !n_restarts;
    } )
