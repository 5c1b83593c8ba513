(* Binary encoding of microinstructions into control words.

   Every machine description reserves four sequencing fields by convention —
   "seq", "cond", "addr", "breg" — plus optional "mask" (register-mask
   branches) and "dspec" (dispatch bit range).  Operation fields come from
   each template's [t_fields].  Encoding fails on a field clash, which makes
   the encoder a second, independent check of the DeWitt conflict model.

   Control words can exceed 64 bits on a wide horizontal machine, so a word
   is represented as a bool array (bit 0 = LSB). *)

open Msl_bitvec
module Diag = Msl_util.Diag

type word = bool array

(* Positions in [Desc.seq_fields] and [d_seq_slots]. *)
let s_seq = 0 and s_cond = 1 and s_addr = 2 and s_breg = 3
let s_mask = 4 and s_dspec = 5

(* Sequencer opcode values. *)
let seq_next = 0
let seq_jump = 1
let seq_branch = 2
let seq_dispatch = 3
let seq_call = 4
let seq_return = 5
let seq_halt = 6

let cond_code = function
  | Desc.C_flag (f, true) -> 1 + Rtl.flag_index f
  | Desc.C_flag (f, false) -> 6 + Rtl.flag_index f
  | Desc.C_reg_zero (_, true) -> 11
  | Desc.C_reg_zero (_, false) -> 12
  | Desc.C_int_pending -> 13
  | Desc.C_reg_mask _ -> 14

(* Write [value] into the field at [slot] of word [w]; [set] holds, per
   field position, the value set there so far (-1: none). *)
let set_slot (d : Desc.t) (w, set) slot value =
  let f = d.Desc.d_fields.(slot) in
  if value < 0 || (f.f_width < 62 && value lsr f.f_width <> 0) then
    Diag.error Diag.Assembly "value %d does not fit field %s (%d bits)" value
      f.f_name f.f_width;
  let v = set.(slot) in
  if v >= 0 && v <> value then
    Diag.error Diag.Compaction
      "control-word field clash on %s: %d vs %d (ops cannot share this word)"
      f.f_name v value;
  set.(slot) <- value;
  for i = 0 to f.f_width - 1 do
    w.(f.f_lo + i) <- (value lsr i) land 1 = 1
  done

(* Two bits per mask position: 0 = don't-care, 1 = must-be-0, 2 = must-be-1 *)
let mask_value mask =
  Array.to_list mask
  |> List.mapi (fun i m ->
         let code =
           match m with Desc.Mx -> 0 | Desc.Mf -> 1 | Desc.Mt -> 2
         in
         code lsl (2 * i))
  |> List.fold_left ( lor ) 0

let encode_inst (d : Desc.t) (inst : Inst.t) : word =
  let nfields = Array.length d.Desc.d_fields in
  let wr = (Array.make d.Desc.d_word_bits false, Array.make nfields (-1)) in
  List.iter
    (fun (op : Inst.op) ->
      let x = Desc.facts d op.Inst.op_t in
      Array.iteri
        (fun k slot -> set_slot d wr slot (Inst.setting_value x op k))
        x.Desc.x_slots)
    inst.Inst.ops;
  let setf k v =
    let slot = d.Desc.d_seq_slots.(k) in
    if slot < 0 then
      Diag.error Diag.Assembly "machine %s has no control-word field %S"
        d.Desc.d_name Desc.seq_fields.(k);
    set_slot d wr slot v
  in
  (match inst.Inst.next with
  | Inst.Next -> setf s_seq seq_next
  | Inst.Jump a ->
      setf s_seq seq_jump;
      setf s_addr a
  | Inst.Branch (c, a) ->
      setf s_seq seq_branch;
      setf s_cond (cond_code c);
      setf s_addr a;
      (match c with
      | Desc.C_reg_zero (r, _) -> setf s_breg r
      | Desc.C_reg_mask (r, m) ->
          setf s_breg r;
          setf s_mask (mask_value m)
      | Desc.C_flag _ | Desc.C_int_pending -> ())
  | Inst.Dispatch { dreg; hi; lo; base } ->
      setf s_seq seq_dispatch;
      setf s_breg dreg;
      setf s_addr base;
      setf s_dspec ((hi lsl 6) lor lo)
  | Inst.Call a ->
      setf s_seq seq_call;
      setf s_addr a
  | Inst.Return -> setf s_seq seq_return
  | Inst.Halt -> setf s_seq seq_halt);
  fst wr

(* Bits of control store a program occupies: the survey's horizontal-vs-
   vertical space comparison (T7). *)
let program_bits (d : Desc.t) insts = List.length insts * d.Desc.d_word_bits

let read_field (w : word) (f : Desc.field) =
  let v = ref 0 in
  for i = f.f_width - 1 downto 0 do
    v := (!v lsl 1) lor if w.(f.f_lo + i) then 1 else 0
  done;
  !v

let word_to_hex (w : word) =
  let nibbles = (Array.length w + 3) / 4 in
  String.init nibbles (fun i ->
      let pos = (nibbles - 1 - i) * 4 in
      let v = ref 0 in
      for b = 3 downto 0 do
        let idx = pos + b in
        v := (!v lsl 1) lor (if idx < Array.length w && w.(idx) then 1 else 0)
      done;
      "0123456789abcdef".[!v])

(* -- disassembly ---------------------------------------------------------- *)

(* A template matches a word when all its constant field settings equal the
   word's field values.  Where one candidate's constant-field set strictly
   contains another's (V11's wr vs rd), the more specific wins.  Templates
   without constant fields (nop) are not decodable and are skipped: an
   all-zero operation section reads back as "no operations". *)
let decode_ops (d : Desc.t) (w : word) : Inst.op list =
  let read slot = read_field w d.Desc.d_fields.(slot) in
  let candidates =
    Desc.templates d
    |> List.filter_map (fun (tm : Desc.template) ->
           let x = tm.Desc.t_facts in
           let consts = ref [] and matched = ref true in
           Array.iteri
             (fun k v ->
               if v >= 0 then begin
                 consts := x.Desc.x_slots.(k) :: !consts;
                 if read x.Desc.x_slots.(k) <> v then matched := false
               end)
             x.Desc.x_values;
           if !consts <> [] && !matched then Some (tm, x, !consts) else None)
  in
  let survivors =
    List.filter
      (fun (_, _, cf) ->
        not
          (List.exists
             (fun (_, _, cf') ->
               List.length cf < List.length cf'
               && List.for_all (fun f -> List.mem f cf') cf)
             candidates))
      candidates
  in
  List.filter_map
    (fun ((tm : Desc.template), (x : Desc.facts), _) ->
      let arg i (spec : Desc.operand_spec) =
        match Array.find_index (fun v -> v = -1 - i) x.Desc.x_values with
        | None -> raise Exit
        | Some k -> (
            let n = read x.Desc.x_slots.(k) in
            match spec.o_kind with
            | Desc.O_reg _ -> Inst.A_reg n
            | Desc.O_imm width -> Inst.A_imm (Bitvec.of_int ~width n))
      in
      match
        Inst.make d tm.Desc.t_name
          (Array.to_list (Array.mapi arg tm.Desc.t_operands))
      with
      | op -> Some op
      | exception (Exit | Invalid_argument _) -> None)
    survivors

let decode_next (d : Desc.t) (w : word) : Inst.next =
  let f k =
    match d.Desc.d_seq_slots.(k) with
    | -1 -> 0
    | slot -> read_field w d.Desc.d_fields.(slot)
  in
  let addr = f s_addr and breg = f s_breg and seq = f s_seq in
  if seq = seq_next then Inst.Next
  else if seq = seq_jump then Inst.Jump addr
  else if seq = seq_call then Inst.Call addr
  else if seq = seq_return then Inst.Return
  else if seq = seq_halt then Inst.Halt
  else if seq = seq_dispatch then
    let dspec = f s_dspec in
    Inst.Dispatch
      { dreg = breg; hi = dspec lsr 6; lo = dspec land 0x3F; base = addr }
  else if seq = seq_branch then begin
    let code = f s_cond in
    let cond =
      if code >= 1 && code <= 5 then
        let flag = List.nth Rtl.all_flags (code - 1) in
        Desc.C_flag (flag, true)
      else if code >= 6 && code <= 10 then
        let flag = List.nth Rtl.all_flags (code - 6) in
        Desc.C_flag (flag, false)
      else if code = 11 then Desc.C_reg_zero (breg, true)
      else if code = 12 then Desc.C_reg_zero (breg, false)
      else if code = 13 then Desc.C_int_pending
      else if code = 14 then begin
        let mval = f s_mask in
        let nbits =
          match d.Desc.d_seq_slots.(s_mask) with
          | -1 -> 0
          | slot -> d.Desc.d_fields.(slot).f_width / 2
        in
        let mask =
          Array.init nbits (fun i ->
              match (mval lsr (2 * i)) land 3 with
              | 1 -> Desc.Mf
              | 2 -> Desc.Mt
              | _ -> Desc.Mx)
        in
        Desc.C_reg_mask (breg, mask)
      end
      else Diag.error Diag.Assembly "bad condition code %d in control word" code
    in
    Inst.Branch (cond, addr)
  end
  else Diag.error Diag.Assembly "bad sequencer code %d in control word" seq

let decode_inst (d : Desc.t) (w : word) : Inst.t =
  { Inst.ops = decode_ops d w; next = decode_next d w }
