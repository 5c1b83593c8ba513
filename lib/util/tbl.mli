(** Plain-text tables for the experiment tables and reports.

    Columns size themselves to the widest cell; the header row is
    underlined.  Cell helpers format the common numeric kinds. *)

type align = Left | Right

type t

val make : title:string -> aligns:align list -> string list -> t
(** [make ~title ~aligns header]; [aligns] and [header] must have the same
    length.
    @raise Invalid_argument otherwise. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val rows : t -> string list list
(** The added rows, in insertion order. *)

val render : t -> string
val print : t -> unit

(** {1 Cell formatting} *)

val cell_int : int -> string
val cell_float : ?digits:int -> float -> string

val cell_pct : int -> int -> string
(** Relative difference of [a] vs baseline [b] as ["+12.5%"]. *)
