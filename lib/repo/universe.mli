(** The built-in package universe: every package of the paper plus
    synthetic fill, sized to the 245 packages of the paper's Fig. 8
    concretization experiment. *)

val repository : unit -> Ospack_package.Repository.t
(** The assembled (memoized) repository: core + python + ares packages,
    padded with synthetic packages to exactly 245, the repository size
    reported in §3.4.1. *)

val compilers : Ospack_config.Compilers.t
(** {!Platforms.toolchains}. *)

val default_config : Ospack_config.Config.t
(** LLNL-flavored site defaults: linux architecture, mvapich2-then-openmpi
    MPI preference, netlib-blas BLAS preference, gcc-first compilers. *)
