(** The ARES multi-physics code and its LLNL-internal dependency stack —
    the full 47-package DAG of paper Fig. 13 and the nightly build matrix
    of Table 3.

    ARES models the four tested code configurations as versions and a
    variant: the development line ([@2015.06]), current production
    ([@2015.03]), previous production ([@2014.11]), and the [lite] variant
    that drops the laser/radiation physics stack and the Python tool
    chain. Conditional [when=] dependencies reproduce "each configuration
    requires a slightly different set of dependencies" (§4.4). *)

val packages : Ospack_package.Package.t list
(** ARES plus every LLNL physics/math/utility package of Fig. 13 that the
    core repository does not already provide. *)

val spec_of_config : [ `Current | `Previous | `Lite | `Dev ] -> string
(** A full ares spec string for a Table 3 configuration, e.g.
    ["ares@2015.03 ~lite"] ([`Lite] shares the current version and sets
    the [lite] variant). *)
