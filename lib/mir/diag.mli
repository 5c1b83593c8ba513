(** Structured lint diagnostics.

    {!Msl_util.Diag} carries the *exceptions* compiler phases raise;
    this module carries the *findings* the post-compile analyzer
    ({!Lint}) reports: a stable code, a severity, a location with
    provenance back to the source statement or control-store word, and
    renderers for humans, sexp consumers and JSON consumers.  Compiler
    errors convert into findings ({!of_compiler_error}) so every [mslc]
    subcommand reports failures in one format. *)

type severity = Error | Warning | Info

(** Where a finding points.  Machine-level findings carry the
    control-store address plus the label of the owning block when the
    linker's label table is available — the provenance chain back to the
    source statement that produced the word. *)
type location =
  | L_none
  | L_source of Msl_util.Loc.t  (** a span in a source buffer *)
  | L_block of { block : string; stmt : int option }
      (** a MIR block, optionally one statement (0-based) inside it *)
  | L_word of { addr : int; owner : string option }
      (** a control-store word, with the owning block label if known *)

type finding = {
  f_code : string;  (** stable machine-readable code, e.g. ["race-ww"] *)
  f_severity : severity;
  f_loc : location;
  f_message : string;
}

val finding :
  ?severity:severity -> ?loc:location -> code:string ->
  ('a, Format.formatter, unit, finding) format4 -> 'a
(** [finding ~code fmt ...] builds a finding ([severity] defaults to
    [Error], [loc] to [L_none]). *)

val word_loc : (string * int) list -> int -> location
(** [word_loc labels] locates control-store words: the owner of a word is
    the label at the greatest address not past it (the first listed among
    labels at one address).  Apply it once per label table. *)

val errors : finding list -> finding list
val warnings : finding list -> finding list

val by_location : finding list -> finding list
(** Stable sort: source findings first, then MIR blocks, then words in
    address order. *)

(** {1 Rendering} *)

val pp_location : Format.formatter -> location -> unit

val pp_finding : Format.formatter -> finding -> unit
(** One line: [severity[code] location: message]. *)

val finding_to_sexp : finding -> string

val report_sexp : machine:string -> finding list -> string
val report_json : machine:string -> finding list -> string
(** A whole report: the machine name, the finding list and the
    error/warning tallies, as one sexp or one JSON object. *)

(** {1 Compiler errors as findings} *)

val of_compiler_error : Msl_util.Diag.t -> finding
(** An [Error]-severity finding located at the diagnostic's source span,
    coded by its phase (["parse"], ["semantic"], ...). *)

val pp_compiler_error : Format.formatter -> Msl_util.Diag.t -> unit
(** [pp_finding] of {!of_compiler_error}: the uniform error line every
    [mslc] subcommand prints before exiting. *)
