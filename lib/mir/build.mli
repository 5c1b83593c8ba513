(** Incremental basic-block builder shared by the language frontends. *)

type t

val make : ?prefix:string -> entry:string -> unit -> t
(** Start building with an open block labelled [entry]; [prefix]
    namespaces the fresh labels. *)

val fresh_label : t -> string
val add : t -> Mir.stmt -> unit
val add_list : t -> Mir.stmt list -> unit

val finish : t -> Mir.term -> unit
(** Close the current block with the terminator; call {!start} before
    adding more statements. *)

val start : t -> string -> unit

val blocks : t -> Mir.block list
(** All finished blocks, in creation order. *)
