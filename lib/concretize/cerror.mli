(** Concretization errors (paper §3.4: "Spack will stop and notify the user
    of the conflict").

    The greedy algorithm does not backtrack; each variant below corresponds
    to a distinct way a greedy run can get stuck, and the message tells the
    user what to toggle — the paper's "the user might toggle a variant or
    force the build to use a particular MPI implementation". *)

type t =
  | Conflict of Ospack_spec.Constraint_ops.conflict
      (** two constraint sources disagree on a parameter *)
  | Unknown_package of string
  | Unknown_variant of { package : string; variant : string }
      (** a spec constrains a variant the package does not declare *)
  | No_provider of { virtual_ : string; constraint_ : string }
      (** no provider's provided versions intersect the requirement *)
  | No_compiler of { package : string; requested : string; arch : string }
  | No_version of {
      package : string;
      constraint_ : string;
      nearest : (string * string) list;
          (** nearest-miss candidates: (version, why it was excluded) *)
    }
  | Conflict_declared of { package : string; spec : string; msg : string }
      (** a [conflicts] directive matched the concretized node *)
  | Unused_constraint of { package : string; root : string }
      (** the user constrained [^package] but it never entered the DAG *)
  | Cycle of string list
  | Not_converged of { iterations : int }
      (** fixed-point loop failed to settle (defensive bound) *)

exception Error of t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** A rendered conflict explanation: for the clause backend an unsat core,
    for the greedy backend the blocked decision path (pseudo-core). *)
type explanation = { ex_backend : string; ex_error : t; ex_chain : string list }

val explain_to_string : explanation -> string
(** The heading (["blocked decision path (greedy backend):"] or
    ["unsat core (<backend> backend):"]) followed by one ["  - "]-indented
    line per chain element. *)
