(** Source locations.

    Every token and AST node of the four frontends carries a [t]: a
    half-open span in a named source buffer, with 1-based lines and
    columns as editors display them. *)

type pos = { line : int; col : int; offset : int }

type t = { file : string; start_pos : pos; end_pos : pos }

val dummy : t
(** The unknown location; [pp] renders it as ["<unknown location>"]. *)

val make : file:string -> start_pos:pos -> end_pos:pos -> t

val is_dummy : t -> bool

val start_pos_of : t -> pos

val merge : t -> t -> t
(** Smallest span covering both arguments; used when an AST node is built
    from two sub-nodes.  A dummy argument yields the other one. *)

val pp : Format.formatter -> t -> unit
(** Renders as [file:line.col-col] (or [file:line.col-line.col] across
    lines). *)

val to_string : t -> string
