(** A minimal JSON substrate (printer + recursive-descent parser).

    Spack stores each installation's complete concrete spec as a
    structured file ([spec.yaml], paper §3.4.3) so the exact DAG can be
    restored later, independent of package-file drift. This module is the
    serialization substrate for ospack's equivalent ([spec.json]). It
    supports the JSON subset the spec format needs: objects, arrays,
    strings (with [\\uXXXX] escapes on parse, standard escapes on print),
    integers, floats, booleans, and null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion-ordered *)

val to_string : ?indent:int -> t -> string
(** Render; [indent] > 0 pretty-prints (default 0: compact). Floats are
    rendered as fixed-point decimals — the shortest representation that
    round-trips, never exponent notation, never locale-dependent, always
    containing a ['.'] so reparsing yields a [Float] — which keeps trace
    files and other golden artifacts diff-stable. Non-finite floats
    (which JSON cannot represent) render as [null]. *)

val of_string : string -> (t, string) result
(** Parse; the error message names the offending position. *)

val fixed : ?decimals:int -> float -> t
(** [fixed f] is [Float f] rounded to a fixed decimal grid
    ([decimals] places, default 6) — the canonical constructor for every
    float written to a golden or baseline artifact (BENCH files, profile
    reports). Rounding first means the printed form is the short decimal
    itself ([14.36], never [14.360000000000001]), so baselines stay
    diff-stable under unrelated recomputation. Non-finite floats pass
    through (and render as [null]). *)

(** {1 Accessors} — total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val get_string : t -> string option
val get_int : t -> int option
val get_bool : t -> bool option
