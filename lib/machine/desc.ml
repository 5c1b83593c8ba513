(* Machine descriptions.

   A [Desc.t] is a complete, declarative model of one microprogrammable
   machine: its registers (with classes, since micro register sets "are
   generally not homogeneous", survey §2.1.3), its functional units, its
   control-word fields, its microoperation templates with RTL semantics,
   the conditions its sequencer can test, and its timing parameters.

   Compilers never hard-code a machine: instruction selection, conflict
   detection, encoding and simulation are all driven by this description,
   which is the survey's MPGL idea (§2.2.5) taken as an architecture
   principle. *)

type reg = {
  r_id : int;
  r_name : string;
  r_width : int;
  r_classes : string list;  (* e.g. ["gpr"]; ["addr"]; ["acc"; "gpr"] *)
  r_macro : bool;
      (* part of the macroarchitecture: saved/restored around microtraps,
         which is exactly what makes the survey's §2.1.5 "incread" program
         buggy *)
}

type operand_role = Read | Write | Read_write

type operand_kind =
  | O_reg of string  (* any register of the named class *)
  | O_imm of int  (* immediate literal of the given width *)

type operand_spec = { o_name : string; o_kind : operand_kind; o_role : operand_role }

(* Where the result of a template lands when it has no Write operand
   (e.g. a machine whose ALU always deposits into ACC). *)
type result_loc = R_operands | R_reg of string | R_none

type field = { f_name : string; f_width : int; f_lo : int }

type fvalue = Fv_const of int | Fv_opnd of int

type field_setting = { fs_field : string; fs_value : fvalue }

(* Semantic class used by machine-independent instruction selection. *)
type sem =
  | S_move
  | S_const
  | S_binop of Rtl.abinop
  | S_not
  | S_neg
  | S_inc
  | S_dec
  | S_mem_read  (* conventionally MBR := mem[MAR] unless operands say else *)
  | S_mem_write
  | S_test  (* set flags from a register *)
  | S_nop
  | S_special of string  (* machine-specific (push/pop/new-block ...) *)

(* What [make] derives once per template; see the interface. *)
type facts = {
  x_index : int;
  x_read_opnds : int array;
  x_write_opnds : int array;
  x_read_regs : int list;
  x_write_regs : int list;
  x_read_flags : int;
  x_set_flags : int;
  x_mem : bool;
  x_units : int;
  x_slots : int array;
  x_values : int array;
}

let unresolved =
  { x_index = -1; x_read_opnds = [||]; x_write_opnds = [||]; x_read_regs = [];
    x_write_regs = []; x_read_flags = 0; x_set_flags = 0; x_mem = false;
    x_units = 0; x_slots = [||]; x_values = [||] }

type template = {
  t_name : string;  (* mnemonic, unique within the machine *)
  t_sem : sem;
  t_operands : operand_spec array;
  t_result : result_loc;
  t_phase : int;  (* phase of the microcycle in which it executes *)
  t_units : string list;  (* functional units occupied *)
  t_fields : field_setting list;  (* control-word encoding *)
  t_actions : Rtl.action list;
  t_extra_cycles : int;  (* stall cycles beyond the base microcycle *)
  t_facts : facts;  (* set by [make]; read them through [facts] *)
}

(* Branch conditions.  Machines declare which capability groups their
   sequencer supports; code generators must synthesise unsupported tests
   (e.g. materialising Z via an OR on a machine without reg-zero tests). *)
type mask_bit = Mt | Mf | Mx

type cond =
  | C_flag of Rtl.flag * bool  (* flag = value *)
  | C_reg_zero of int * bool  (* (reg = 0) = value *)
  | C_reg_mask of int * mask_bit array  (* YALLL-style t/f/x mask match *)
  | C_int_pending  (* an interrupt is waiting (survey §2.1.5) *)

type cond_cap = Cap_flag | Cap_reg_zero | Cap_reg_mask | Cap_int | Cap_dispatch

type t = {
  d_name : string;
  d_word : int;  (* datapath width in bits *)
  d_addr : int;  (* control-store address width *)
  d_phases : int;  (* phases per microcycle; 1 = monophase *)
  d_regs : reg array;
  d_units : string list;
  d_fields : field array;
  d_word_bits : int;  (* the highest field bit + 1 *)
  d_seq_slots : int array;  (* indices of [seq_fields] in d_fields, or -1 *)
  d_templates : template array;
  d_cond_caps : cond_cap list;
  d_mem_extra_cycles : int;
  d_store_words : int;  (* control store capacity *)
  d_vertical : bool;  (* one microoperation per microinstruction *)
  d_scratch_base : int;  (* main-memory base reserved for register spills *)
  d_note : string;
  d_digest : string;  (* hex digest of every field above; see [make] *)
  (* caches *)
  by_name : (string, reg) Hashtbl.t;
  by_lower_name : (string, reg) Hashtbl.t;
  by_class : (string, reg list) Hashtbl.t;
  t_by_name : (string, template) Hashtbl.t;
}

(* The sequencing fields every description reserves by convention, in
   the order of [d_seq_slots]; Encode documents their values. *)
let seq_fields = [| "seq"; "cond"; "addr"; "breg"; "mask"; "dspec" |]

let regs t = Array.to_list t.d_regs
let templates t = Array.to_list t.d_templates

let reg t id =
  if id < 0 || id >= Array.length t.d_regs then
    invalid_arg (Printf.sprintf "%s: no register %d" t.d_name id);
  t.d_regs.(id)

let reg_name t id = (reg t id).r_name

let find_reg t name = Hashtbl.find_opt t.by_name name

let find_reg_ci t name =
  Hashtbl.find_opt t.by_lower_name (String.lowercase_ascii name)

let get_reg t name =
  match find_reg t name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "%s: no register %S" t.d_name name)

let regs_of_class t cls =
  match Hashtbl.find_opt t.by_class cls with Some l -> l | None -> []

let reg_in_class r cls = List.mem cls r.r_classes

let find_template t name = Hashtbl.find_opt t.t_by_name name

let get_template t name =
  match find_template t name with
  | Some tm -> tm
  | None -> invalid_arg (Printf.sprintf "%s: no microoperation %S" t.d_name name)

let templates_with_sem t sem =
  List.filter (fun tm -> tm.t_sem = sem) (templates t)

let has_cap t cap = List.mem cap t.d_cond_caps

let cond_supported t = function
  | C_flag _ -> has_cap t Cap_flag
  | C_reg_zero _ -> has_cap t Cap_reg_zero
  | C_reg_mask _ -> has_cap t Cap_reg_mask
  | C_int_pending -> has_cap t Cap_int

(* The complementary test, when the sequencer can express one: flag and
   reg-zero tests negate by flipping the expected value.  A mask match
   has no single complementary mask, and the interrupt test has no
   complement at all. *)
let negate_cond = function
  | C_flag (f, v) -> Some (C_flag (f, not v))
  | C_reg_zero (r, v) -> Some (C_reg_zero (r, not v))
  | C_reg_mask _ | C_int_pending -> None

(* Validation: catches machine-description mistakes at construction time.
   Runs on every description — hand-constructed, shipped .mdesc and
   user-supplied alike (the Mdesc elaborator re-reports the same
   invariants with source locations before this backstop fires). *)
let validate t =
  let fail fmt = Format.kasprintf invalid_arg ("Desc %s: " ^^ fmt) t.d_name in
  if t.d_phases < 1 then fail "phases must be >= 1";
  (* names must be unique, case-insensitively: lookups are case-folded in
     several frontends, so "acc"/"ACC" colliding is an authoring bug *)
  let check_dups what names =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun n ->
        let k = String.lowercase_ascii n in
        if Hashtbl.mem seen k then fail "duplicate %s name %S" what n;
        Hashtbl.replace seen k ())
      names
  in
  check_dups "register" (List.map (fun r -> r.r_name) (Array.to_list t.d_regs));
  let fields = Array.to_list t.d_fields in
  check_dups "field" (List.map (fun f -> f.f_name) fields);
  check_dups "template"
    (List.map (fun tm -> tm.t_name) (Array.to_list t.d_templates));
  check_dups "unit" t.d_units;
  if List.length t.d_units > 62 then fail "more than 62 functional units";
  (* every field must fit the control word: sane offset, nonzero width,
     and no wider than the 62 bits the encoder can range-check *)
  List.iter
    (fun f ->
      if f.f_lo < 0 then fail "field %s at negative offset %d" f.f_name f.f_lo;
      if f.f_width < 1 || f.f_width > 62 then
        fail "field %s has width %d (must be 1..62)" f.f_name f.f_width)
    fields;
  (* fields must not overlap *)
  let sorted =
    List.sort (fun a b -> compare a.f_lo b.f_lo) fields
  in
  let rec check_fields = function
    | a :: (b :: _ as rest) ->
        if a.f_lo + a.f_width > b.f_lo then
          fail "control-word fields %s and %s overlap" a.f_name b.f_name;
        check_fields rest
    | [ _ ] | [] -> ()
  in
  check_fields sorted;
  let field_names = List.map (fun f -> f.f_name) fields in
  Array.iteri
    (fun i r ->
      if r.r_id <> i then fail "register %s has id %d at slot %d" r.r_name r.r_id i)
    t.d_regs;
  Array.iter
    (fun tm ->
      if tm.t_phase < 0 || tm.t_phase >= t.d_phases then
        fail "template %s: phase %d outside 0..%d" tm.t_name tm.t_phase
          (t.d_phases - 1);
      List.iter
        (fun u ->
          if not (List.mem u t.d_units) then
            fail "template %s: unknown unit %s" tm.t_name u)
        tm.t_units;
      List.iter
        (fun fs ->
          if not (List.mem fs.fs_field field_names) then
            fail "template %s: unknown field %s" tm.t_name fs.fs_field;
          match fs.fs_value with
          | Fv_opnd i when i < 0 || i >= Array.length tm.t_operands ->
              fail "template %s: field %s references operand %d" tm.t_name
                fs.fs_field i
          | Fv_const v ->
              let f =
                List.find (fun f -> f.f_name = fs.fs_field) fields
              in
              if v < 0 || (f.f_width < 62 && v lsr f.f_width <> 0) then
                fail "template %s: value %d does not fit field %s (%d bits)"
                  tm.t_name v fs.fs_field f.f_width
          | Fv_opnd _ -> ())
        tm.t_fields;
      Array.iter
        (fun o ->
          match o.o_kind with
          | O_reg cls ->
              if regs_of_class t cls = [] then
                fail "template %s: empty register class %s" tm.t_name cls
          | O_imm w ->
              if w < 1 || w > 64 then
                fail "template %s: immediate width %d" tm.t_name w)
        tm.t_operands;
      (match tm.t_result with
      | R_reg name ->
          if find_reg t name = None then
            fail "template %s: result register %s unknown" tm.t_name name
      | R_operands | R_none -> ());
      let check_dest = function
        | Rtl.D_opnd i ->
            if i < 0 || i >= Array.length tm.t_operands then
              fail "template %s: action writes operand %d" tm.t_name i
            else if tm.t_operands.(i).o_role = Read then
              fail "template %s: action writes read-only operand %d" tm.t_name i
        | Rtl.D_reg name ->
            if find_reg t name = None then
              fail "template %s: action writes unknown register %s" tm.t_name
                name
      in
      List.iter
        (fun (a : Rtl.action) ->
          (match a with
          | Assign (d, _) | Arith (d, _, _, _) | Arith_nf (d, _, _, _)
          | Mem_read (d, _) ->
              check_dest d
          | Mem_write _ | Set_flag _ | Arith_flags _ | Int_ack -> ());
          List.iter
            (fun r ->
              if find_reg t r = None then
                fail "template %s: action reads unknown register %s" tm.t_name r)
            (Rtl.action_reads a);
          List.iter
            (fun i ->
              if i < 0 || i >= Array.length tm.t_operands then
                fail "template %s: action reads operand %d" tm.t_name i)
            (Rtl.action_read_opnds a))
        tm.t_actions)
    t.d_templates;
  t

let field_slot fields name =
  Option.value ~default:(-1) (Array.find_index (fun f -> f.f_name = name) fields)

(* A template's facts for machine [t], from its RTL and names; [t] has
   validated, so every field, unit and register the template names
   exists. *)
let derive t index tm =
  let acts = tm.t_actions in
  let opnds keep =
    Array.of_list
      (List.filter
         (fun i -> keep tm.t_operands.(i).o_role)
         (List.init (Array.length tm.t_operands) Fun.id))
  in
  let ids of_action =
    List.concat_map of_action acts
    |> List.map (fun n -> (get_reg t n).r_id)
    |> List.sort_uniq compare
  in
  let mask bit l = List.fold_left (fun m x -> m lor (1 lsl bit x)) 0 l in
  let flags of_action = mask Rtl.flag_index (List.concat_map of_action acts) in
  let unit u = Option.get (List.find_index (String.equal u) t.d_units) in
  let settings f = Array.of_list (List.map f tm.t_fields) in
  {
    x_index = index;
    x_read_opnds = opnds (fun r -> r <> Write);
    x_write_opnds = opnds (fun r -> r <> Read);
    x_read_regs = ids Rtl.action_reads;
    x_write_regs = ids (fun a -> fst (Rtl.action_writes a));
    x_read_flags = flags Rtl.action_reads_flags;
    x_set_flags = flags Rtl.action_sets_flags;
    x_mem = List.exists Rtl.action_touches_memory acts;
    x_units = mask unit tm.t_units;
    x_slots = settings (fun fs -> field_slot t.d_fields fs.fs_field);
    x_values =
      settings (fun fs ->
          match fs.fs_value with Fv_const c -> c | Fv_opnd i -> -1 - i);
  }

let facts t tm =
  let i = tm.t_facts.x_index in
  if i >= 0 && i < Array.length t.d_templates && t.d_templates.(i) == tm then
    tm.t_facts
  else
    invalid_arg
      (Printf.sprintf "%s: template %s is not this machine's" t.d_name tm.t_name)

let template_index t tm = (facts t tm).x_index

let make ~name ~word ~addr ~phases ~regs ~units ~fields ~templates ~cond_caps
    ~mem_extra_cycles ~store_words ~vertical ~scratch_base ~note () =
  let d_regs = Array.of_list regs in
  let by_name = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace by_name r.r_name r) d_regs;
  let by_lower_name = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      let l = String.lowercase_ascii r.r_name in
      if not (Hashtbl.mem by_lower_name l) then Hashtbl.add by_lower_name l r)
    d_regs;
  let by_class = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      List.iter
        (fun cls ->
          let cur =
            match Hashtbl.find_opt by_class cls with Some l -> l | None -> []
          in
          Hashtbl.replace by_class cls (cur @ [ r ]))
        r.r_classes)
    d_regs;
  let d_templates = Array.of_list templates in
  (* Taken once here so that anything persisted against a description
     (the service's disk cache) can tell an edited machine from the
     one it was written for.  A template's other fields, as a tuple,
     marshal exactly as the record did before it had facts. *)
  let plain tm =
    ( tm.t_name, tm.t_sem, tm.t_operands, tm.t_result, tm.t_phase, tm.t_units,
      tm.t_fields, tm.t_actions, tm.t_extra_cycles )
  in
  let d_digest =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( (name, word, addr, phases, d_regs, units, fields,
               Array.map plain d_templates),
              (cond_caps, mem_extra_cycles, store_words, vertical, scratch_base,
               note) )
            []))
  in
  let d_fields = Array.of_list fields in
  let t =
    validate
      {
        d_name = name;
        d_word = word;
        d_addr = addr;
        d_phases = phases;
        d_regs;
        d_units = units;
        d_fields;
        d_word_bits =
          Array.fold_left (fun m f -> max m (f.f_lo + f.f_width)) 0 d_fields;
        d_seq_slots = Array.map (field_slot d_fields) seq_fields;
        d_templates;
        d_cond_caps = cond_caps;
        d_mem_extra_cycles = mem_extra_cycles;
        d_store_words = store_words;
        d_vertical = vertical;
        d_scratch_base = scratch_base;
        d_note = note;
        d_digest;
        by_name;
        by_lower_name;
        by_class;
        t_by_name = Hashtbl.create 64;
      }
  in
  Array.iteri
    (fun i tm ->
      let tm = { tm with t_facts = derive t i tm } in
      d_templates.(i) <- tm;
      Hashtbl.replace t.t_by_name tm.t_name tm)
    d_templates;
  t

(* Convenience constructors for descriptions built in OCaml (Sweeper, tests). *)
let mkreg ?(classes = [ "gpr" ]) id name width =
  { r_id = id; r_name = name; r_width = width; r_classes = classes;
    r_macro = false }

let add_cond d buf = function
  | C_flag (f, v) ->
      Printf.bprintf buf "%s%s" (if v then "" else "!") (Rtl.flag_name f)
  | C_reg_zero (r, v) ->
      Printf.bprintf buf "%s %s 0" (reg_name d r) (if v then "=" else "<>")
  | C_reg_mask (r, m) ->
      Printf.bprintf buf "%s match " (reg_name d r);
      for i = Array.length m - 1 downto 0 do
        Buffer.add_char buf (match m.(i) with Mt -> '1' | Mf -> '0' | Mx -> 'x')
      done
  | C_int_pending -> Buffer.add_string buf "int_pending"

let pp_cond d ppf c =
  let buf = Buffer.create 16 in
  add_cond d buf c; Fmt.string ppf (Buffer.contents buf)
