(** Extension activation (paper §4.2).

    A package that [extends] another (Python modules extending a Python
    interpreter) installs into its own prefix like any package, but can be
    {e activated} into the extendee's prefix: every file is symlinked in,
    as if installed directly. Activation fails — changing nothing — on any
    file conflict, unless a merge hook handles the colliding path (the
    paper's "this feature merges conflicting files during activation",
    used for Python's shared path-index files). Deactivation removes the
    links and un-merges merged files, restoring the pristine prefix. *)

type merge_hook = rel:string -> existing:string -> incoming:string -> string option
(** [merge ~rel ~existing ~incoming] decides what to do when the extension
    wants to place content at relative path [rel] where [existing] content
    is already present: [Some merged] writes the merged content; [None]
    declares a hard conflict. *)

type error =
  | Refused of string
      (** already active, not active, or a file conflict; the message
          names the extension and the path *)
  | Io of Ospack_vfs.Vfs.error
      (** the filesystem refused a link, a merged file or the registry *)

val error_to_string : error -> string

val line_union_merge : merge_hook
(** Merge hook for line-oriented path-index files: the union of the two
    files' lines, first occurrence order preserved — how Python
    [.pth]-style files combine. *)

val activate :
  Ospack_vfs.Vfs.t ->
  ?merge:(rel:string -> merge_hook option) ->
  ext_name:string ->
  ext_prefix:string ->
  target_prefix:string ->
  unit ->
  (string list, error) result
(** Link every file of [ext_prefix] (except its provenance directory) into
    [target_prefix]. Returns the relative paths linked or merged. On
    conflict or a refused write (the registry's included),
    already-created links are rolled back and the error names the
    conflicting path or carries the filesystem error. Fails if the
    extension is already active. Never raises. *)

val deactivate :
  Ospack_vfs.Vfs.t ->
  ext_name:string ->
  ext_prefix:string ->
  target_prefix:string ->
  (string list, error) result
(** Remove the extension's links (and its lines from merged files). Fails
    if the extension is not active, and with [Io] when a write is
    refused. Never raises. *)

val active : Ospack_vfs.Vfs.t -> target_prefix:string -> (string * string) list
(** [(name, prefix)] of extensions currently activated in a prefix. *)
