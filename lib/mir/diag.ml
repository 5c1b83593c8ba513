(* Structured lint diagnostics.

   [Msl_util.Diag] is the exception compiler phases raise; this module is
   the *finding* the post-compile analyzer reports.  A finding carries a
   stable code ("race-ww", "field-overflow", ...), a severity, and a
   location that chains provenance back from the control-store word
   through the owning MIR block to the source span, plus renderers for
   humans, sexps and JSON. *)

module Trace = Msl_util.Trace

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type location =
  | L_none
  | L_source of Msl_util.Loc.t
  | L_block of { block : string; stmt : int option }
  | L_word of { addr : int; owner : string option }

type finding = {
  f_code : string;
  f_severity : severity;
  f_loc : location;
  f_message : string;
}

let finding ?(severity = Error) ?(loc = L_none) ~code fmt =
  Format.kasprintf
    (fun f_message ->
      { f_code = code; f_severity = severity; f_loc = loc; f_message })
    fmt

let errors fs = List.filter (fun f -> f.f_severity = Error) fs
let warnings fs = List.filter (fun f -> f.f_severity = Warning) fs

(* A word's location: its owner is the label at the greatest address not
   past it, the first listed among labels at one address.  The labels are
   sorted once, reversed so that label comes last among its ties; each
   lookup is a binary search for the last label not past the word. *)
let word_loc labels =
  let by_addr (_, a) (_, b) = compare a b in
  let ls = Array.of_list (List.stable_sort by_addr (List.rev labels)) in
  fun addr ->
    let lo = ref 0 and hi = ref (Array.length ls) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if snd ls.(mid) <= addr then lo := mid + 1 else hi := mid
    done;
    L_word { addr; owner = (if !lo = 0 then None else Some (fst ls.(!lo - 1))) }

(* Source findings first, then MIR blocks, then words by address; the
   sort is stable so analysis order breaks ties deterministically. *)
let location_rank = function
  | L_none -> (0, 0, "")
  | L_source l -> (1, (Msl_util.Loc.start_pos_of l).offset, l.file)
  | L_block { block; stmt } ->
      (2, (match stmt with None -> -1 | Some i -> i), block)
  | L_word { addr; _ } -> (3, addr, "")

let by_location fs =
  List.stable_sort
    (fun a b -> compare (location_rank a.f_loc) (location_rank b.f_loc))
    fs

(* Rendering ---------------------------------------------------------- *)

let pp_location ppf = function
  | L_none -> ()
  | L_source l -> Msl_util.Loc.pp ppf l
  | L_block { block; stmt = None } -> Fmt.pf ppf "block %s" block
  | L_block { block; stmt = Some i } -> Fmt.pf ppf "block %s stmt %d" block i
  | L_word { addr; owner = None } -> Fmt.pf ppf "word %d" addr
  | L_word { addr; owner = Some l } -> Fmt.pf ppf "word %d (block %s)" addr l

let pp_finding ppf f =
  match f.f_loc with
  | L_none ->
      Fmt.pf ppf "%s[%s]: %s" (severity_name f.f_severity) f.f_code f.f_message
  | loc ->
      Fmt.pf ppf "%s[%s] %a: %s" (severity_name f.f_severity) f.f_code
        pp_location loc f.f_message

(* The sexp renderer quotes strings with the JSON escapes, which a sexp
   reader accepts for quote, backslash and control characters. *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  Trace.escape b s;
  Buffer.contents b

let location_to_sexp = function
  | L_none -> "(none)"
  | L_source l -> Fmt.str "(source \"%s\")" (escape (Msl_util.Loc.to_string l))
  | L_block { block; stmt = None } -> Fmt.str "(block \"%s\")" (escape block)
  | L_block { block; stmt = Some i } ->
      Fmt.str "(block \"%s\" %d)" (escape block) i
  | L_word { addr; owner = None } -> Fmt.str "(word %d)" addr
  | L_word { addr; owner = Some l } ->
      Fmt.str "(word %d \"%s\")" addr (escape l)

let finding_to_sexp f =
  Fmt.str "(finding (code %s) (severity %s) (loc %s) (message \"%s\"))"
    f.f_code
    (severity_name f.f_severity)
    (location_to_sexp f.f_loc)
    (escape f.f_message)

let report_sexp ~machine fs =
  Fmt.str "(lint (machine %s) (errors %d) (warnings %d) (findings%s))" machine
    (List.length (errors fs))
    (List.length (warnings fs))
    (String.concat ""
       (List.map (fun f -> "\n  " ^ finding_to_sexp f) fs))

let num n = Trace.J_num (float_of_int n)
let opt f = function None -> Trace.J_null | Some v -> f v

let location_json : location -> Trace.json = function
  | L_none -> J_null
  | L_source l ->
      J_obj
        [ ("kind", J_str "source"); ("at", J_str (Msl_util.Loc.to_string l)) ]
  | L_block { block; stmt } ->
      J_obj
        [
          ("kind", J_str "block");
          ("block", J_str block);
          ("stmt", opt num stmt);
        ]
  | L_word { addr; owner } ->
      J_obj
        [
          ("kind", J_str "word");
          ("addr", num addr);
          ("owner", opt (fun l -> Trace.J_str l) owner);
        ]

let finding_fields f =
  [
    ("code", Trace.J_str f.f_code);
    ("severity", J_str (severity_name f.f_severity));
    ("loc", location_json f.f_loc);
    ("message", J_str f.f_message);
  ]

let report_json ~machine fs =
  Trace.json_line
    [
      ("machine", J_str machine);
      ("errors", num (List.length (errors fs)));
      ("warnings", num (List.length (warnings fs)));
      ( "findings",
        J_arr (List.map (fun f -> Trace.J_obj (finding_fields f)) fs) );
    ]

(* Compiler errors as findings ---------------------------------------- *)

let phase_code (p : Msl_util.Diag.phase) =
  match p with
  | Lexing -> "lex"
  | Parsing -> "parse"
  | Semantic -> "semantic"
  | Instantiation -> "instantiate"
  | Verification -> "verify"
  | Allocation -> "alloc"
  | Codegen -> "codegen"
  | Compaction -> "compact"
  | Assembly -> "assemble"
  | Execution -> "execute"
  | Lint -> "lint"
  | Internal -> "internal"

(* The code already names the phase, so the message is carried as-is. *)
let of_compiler_error (d : Msl_util.Diag.t) =
  let loc = if Msl_util.Loc.is_dummy d.loc then L_none else L_source d.loc in
  { f_code = phase_code d.phase; f_severity = Error; f_loc = loc;
    f_message = d.message }

let pp_compiler_error ppf d = pp_finding ppf (of_compiler_error d)
