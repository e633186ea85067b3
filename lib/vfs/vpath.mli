(** Slash-separated virtual paths.

    All paths in the virtual filesystem are absolute ("/..."). Components
    ["."] and [""] are dropped; [".."] is resolved lexically by
    {!normalize}. *)

val split : string -> string list
(** Components of a path, with empty and ["."] components dropped
    (no [".."] handling — see {!normalize}). *)

val join : string -> string -> string
(** [join dir name] appends one component (or relative path) to [dir]. *)

val normalize : string -> string
(** Canonical absolute form: leading slash, no duplicate slashes, [".."]
    resolved lexically (never above the root). A path that is already
    canonical ({!is_canonical}) is returned as is, without allocating. *)

val is_canonical : string -> bool
(** Absolute, with no empty, ["."] or [".."] component and no trailing
    ['/'] (["/"] itself is canonical): exactly the paths {!normalize}
    leaves unchanged. *)

val extend : string -> string -> string
(** [extend dir name] appends one component to a canonical path by plain
    concatenation. Equal to [join dir name] when [dir] is canonical and
    [name] is a single component other than [""], ["."] and [".."] — the
    linear-time step of a path walk. *)

val dirname : string -> string
(** Parent path; ["/"] is its own parent. *)

val basename : string -> string
(** Final component; [""] for the root. *)

val is_absolute : string -> bool

val under : prefix:string -> string -> bool
(** [under ~prefix p]: the canonical path [p] is [prefix] or lies below
    it, on a component boundary (["/a/bc"] is not under ["/a/b"]). *)

val concat : string list -> string
(** Build an absolute path from components. *)
