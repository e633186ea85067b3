(** A small CDCL SAT solver with clause-origin tracking, the engine of the
    clause-based concretizer backend ({!Clauses}, {!Backends}).

    Variables are [1..nvars]; a literal is [+v] (true) or [-v] (false).
    Each input clause carries an integer {e origin} id (the encoder's
    handle on "which constraint produced this clause"); on UNSAT the
    solver returns the set of origin ids its refutation actually used —
    an over-approximate unsat core the caller can minimize and render.

    Search is classic two-watched-literal CDCL: unit propagation, 1-UIP
    conflict analysis with backjumping, geometric restarts, and a static
    decision order whose literal signs encode the preferred phase — the
    optimization weights (prefer ranked providers and newest versions
    positively, extra builds negatively) are expressed entirely through
    that order, so the first model found is the weight-optimal one.

    Storage is int-only and reused: every clause's literals live in one
    int arena, an input clause's origin is an int (only learned clauses
    hold origin sets), and watch lists are int regions of one array. These
    tables and the per-variable arrays belong to one workspace per domain,
    which each solve resets and grows to the largest problem the domain
    has solved; it is never shrunk. A solve therefore allocates little
    beyond its input, result and learned clauses, and keeps no
    old-to-young pointers that would promote a solve's clauses. [solve]
    calls no code of its caller, so a domain never runs two solves on its
    workspace at once. *)

type outcome =
  | Sat of bool array  (** index [v] holds the value of variable [v] *)
  | Unsat of int list  (** origin ids of the clauses used in refutation *)

type stats = {
  s_decisions : int;
  s_propagations : int;
  s_conflicts : int;
  s_restarts : int;
}

val solve :
  ?obs:Ospack_obs.Obs.t ->
  nvars:int ->
  clauses:(int list * int) list ->
  order:int list ->
  unit ->
  outcome * stats
(** [solve ~nvars ~clauses ~order ()] — [clauses] are (literals, origin)
    pairs; tautologies are dropped and duplicate literals removed. [order]
    is the static decision sequence: at each decision the first literal
    whose variable is unassigned is asserted with the given sign;
    variables not in [order] default to false. Counters mirror into [obs]
    as [solver.decisions] / [solver.propagations] / [solver.conflicts] /
    [solver.restarts].

    @raise Invalid_argument if a literal of [clauses] or [order] is 0 or
    names a variable above [nvars]. *)
