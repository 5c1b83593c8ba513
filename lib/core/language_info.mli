(** The survey's ten-language comparison as queryable data, and the §3
    tallies recomputed from it (experiment T1). *)

type parallelism =
  | Sequential  (** compiler composes microinstructions *)
  | Explicit  (** programmer composes microinstructions *)

type variables = Registers | Symbolic | Partly_symbolic

type implementation = Implemented of int | Partial | Not_implemented

type t = {
  name : string;
  year : int;
  designers : string;
  section : string;  (** where the survey discusses it *)
  primitives : string;  (** design issue 2.1.2 *)
  variables : variables;  (** 2.1.3 *)
  parallelism : parallelism;  (** 2.1.4 *)
  interrupts_addressed : bool;  (** 2.1.5 *)
  subroutine_parameters : bool;  (** §3 *)
  control : string;  (** 2.1.6 *)
  datatypes : string;  (** 2.1.7 *)
  verification : bool;
  implementation : implementation;  (** 2.1.8 *)
  in_toolkit : bool;  (** reimplemented in this repository *)
}

val languages : t list
(** SIMPL, EMPL, S*, YALLL, MPL, Strum, MPGL, Malik-Lewis, CHAMIL, PL/MP. *)

(** {1 The §3 tallies} *)

val sequential_count : int
val explicit_count : int
val symbolic_count : int
val parameter_passing_count : int
val interrupts_count : int

(** {1 Rendering} *)

val to_table : unit -> Msl_util.Tbl.t
val tallies_table : unit -> Msl_util.Tbl.t
