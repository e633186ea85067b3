(** Constraint intersection and satisfaction over abstract spec nodes —
    the algebra behind the concretizer's "Intersect Constraints" stage
    (paper Fig. 6).

    Intersection is symmetric and reports typed conflicts (the paper's
    "Spack will stop and notify the user of the conflict", §3.4).
    Satisfaction ([node_satisfies]) is the strict check used to evaluate
    [when=] predicates against a (partially) concretized node: a predicate
    on a parameter holds only once that parameter is pinned to a value
    admitted by the predicate. *)

type conflict = {
  package : string;  (** node name the conflict arose on *)
  field : string;  (** ["version"], ["compiler"], ["variant x"], ["architecture"], ["name"] *)
  left : string;  (** human-readable rendering of one side *)
  right : string;
}

val conflict_to_string : conflict -> string

val intersect_node : Ast.node -> Ast.node -> (Ast.node, conflict) result
(** Merge two constraint nodes for the same package. Anonymous names merge
    with named ones; two different non-empty names conflict. *)

val merge : Ast.t -> Ast.t -> (Ast.t, conflict) result
(** Merge two abstract specs: roots intersect; dependency constraints
    intersect per name, union otherwise. The roots must name the same
    package (or one be anonymous). *)

val intersect_compiler_reqs :
  Ast.compiler_req option ->
  Ast.compiler_req option ->
  (Ast.compiler_req option, string) result
(** Intersection of two optional compiler requirements, with a rendered
    message on conflict (used by the parser for repeated [%] constraints). *)

val node_satisfies : candidate:Ast.node -> constraint_:Ast.node -> bool
(** Does [candidate] definitely satisfy [constraint_]? Parameters that
    [constraint_] pins but [candidate] has not yet pinned to a single value
    yield [false] (the predicate may become true after further
    concretization — the fixed-point loop re-evaluates). A version
    constraint is satisfied when the candidate's pinned version is a member;
    variants and architecture require equality; a compiler constraint
    requires same compiler name and a pinned, member version when the
    constraint restricts versions. *)
