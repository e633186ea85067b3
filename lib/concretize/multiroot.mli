(** Unified multi-root concretization — the environment solve.

    An environment's roots must be concretized {e together}: solving each
    root independently can lock two roots to conflicting versions of a
    shared dependency, which defeats the one-configuration-per-package
    guarantee a DAG gives a single spec (paper §3.2.1). This module folds
    all roots into one solve:

    + every root's constraints (its root node and its [^dep] constraints)
      are intersected into a single flat constraint map — a typed
      {!error.Root_conflict} here is the unify semantics surfacing a real
      incompatibility between two roots;
    + a synthetic meta-package, named by a digest of the canonical root
      strings and depending on every distinct root name, is layered over
      the repository and concretized once through the selected backend
      ({!Backends.solve} — greedy or clauses), so shared sub-DAGs are
      merged by construction;
    + the unified DAG is split back into per-root concrete specs with
      {!Ospack_spec.Concrete.subspec} (virtual roots resolve to their
      provider node).

    The whole unified solve memoizes through the ordinary concretization
    cache when [cache] is given, by {!Ccache.memo} like any single query
    (an unseeded solve, a failure memoized too): the key is the
    canonical printed meta spec (digest-named, so distinct root sets
    never collide), and the entry validates per the usual Merkle
    fingerprint over its closure. The memo's [ccache.lookup] span goes
    to [obs]. *)

type error =
  | Root_conflict of {
      package : string;  (** the package two roots disagree on *)
      left_root : string;  (** canonical root that first constrained it *)
      right_root : string;  (** canonical root that contradicts it *)
      conflict : Ospack_spec.Constraint_ops.conflict;
    }
  | Unsat of Cerror.t  (** the unified solve itself failed *)
  | Dropped_root of string
      (** a root never materialized in the unified DAG (internal error —
          the meta-package depends on every root by name) *)

val error_to_string : error -> string

val solve :
  ?cache:Ccache.t ->
  ?obs:Ospack_obs.Obs.t ->
  backend:Backends.t ->
  config:Ospack_config.Config.t ->
  compilers:Ospack_config.Compilers.t ->
  repo:Ospack_package.Repository.t ->
  Ospack_spec.Ast.t list ->
  (Ospack_spec.Concrete.t list, error) result
(** Concretize all roots in one pass; returns one concrete spec per root,
    in input order. Deterministic, and observationally identical with or
    without [cache] (the caller persists the cache). [solve ... []] is
    [Ok []]. *)
