(** The other extendable interpreters of §4.2's closing remark: "this
    design could also be used with other languages with similar extension
    models, such as R, Ruby, or Lua" — each with a couple of extension
    packages that install into their own prefixes and activate into the
    interpreter. *)

val packages : Ospack_package.Package.t list

val r_site_library : string
(** Relative site-library directory under an R (or R-extension) prefix. *)
