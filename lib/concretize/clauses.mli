(** Clause encoding of a concretization problem for the {!Solver} backend.

    The literal scheme has one boolean variable per
    - package presence — [P(pkg)]: the package appears in the DAG;
    - package version — [V(pkg, v)]: the package is at version [v];
    - provider choice — [Prov(virt, pkg)]: [pkg] provides virtual [virt].

    The encoding is a sound {e relaxation} of the greedy semantics: every
    DAG the greedy fixed point could produce (under any decision
    overrides) is a model, so encoding-UNSAT implies greedy-UNSAT and the
    extracted core is a true explanation. Unconditional [conflicts]
    directives translate when they constrain only versions and an arch
    that is statically certain (no arch named by the user spec or by a
    dependency directive in the closure, so every node takes the site
    default). Constraints the clause language cannot express exactly
    (compiler/arch-conditional deps, variants that some spec might pin)
    are dropped rather than approximated, and models
    are validated by replaying them through the greedy oracle
    ({!Concretizer.run_trace} with forced decisions) — see {!Backends}.

    Encoding costs time proportional to the clauses it emits:
    - variables are numbered as they are created, in decision order, and
      looked up through the closure's per-package candidate lists rather
      than by rendered name;
    - the facts that depend only on the repository and config are kept in
      the context's {!Concretizer_intf.fact} table, which the greedy
      reads too: each virtual's
      providers in site order, and the version and variant preferences of
      the packages the config names (built once, from the config's keys;
      every other package has none). That is exact because a context's
      repository and config never change. Everything the query
      contributes (its extrapolated version points, its pinned variants,
      the providers it names) stays per encoding;
    - each clause's reason is a lazy rendering, formatted only when
      {!reason} or {!render_core} asks for it. *)

type t

val encode : Concretizer_intf.ctx -> Ospack_spec.Ast.t -> t
(** Encode the abstract spec against the context's package universe.
    The emitted clause order puts user constraints first and structural
    axioms last, so rendered cores lead with what the user asked for. *)

val nvars : t -> int
val clause_list : t -> (int list * int) list
(** (literals, origin id) pairs; origin ids index {!reason}. *)

val order : t -> int list
(** Static decision order encoding the optimization weights: provider
    variables first (per virtual, site rank order, positive phase =
    preferred provider), then version variables (per package, best
    version first, positive phase = newest/preferred), then presence
    variables with negative phase (= fewest builds). *)

val reason : t -> int -> string
(** Human-readable rendering of the constraint behind an origin id,
    rendered on the first call and shared by later ones. *)

val reason_group : t -> int -> int
(** The origin id's reason group: the first origin whose {!reason}
    renders the same. The first call renders every reason, once per
    encoding. *)

val var_to_string : t -> int -> string
(** Render a variable: [P(pkg)], [V(pkg@v)], or [Prov(virt=pkg)]. *)

val render_core : t -> int list -> string list
(** Origin ids → deduplicated reason lines, in emission order (user
    constraints first). *)

val decisions_of_model : t -> bool array -> (string * string) list
(** Translate a model into value-based forced decisions for the greedy
    oracle: [("provider:<virt>", <pkg>)] and [("version:<pkg>", <v>)]. *)

val blocking_lits : t -> bool array -> int list
(** The model's true provider-choice and version literals — negating
    these blocks the model {e and all its supersets} (sound because any
    superset forces the oracle through the same consulted decisions). *)
