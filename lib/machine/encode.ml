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

let word_bits (d : Desc.t) =
  List.fold_left
    (fun acc (f : Desc.field) -> max acc (f.f_lo + f.f_width))
    0 d.Desc.d_fields

let field (d : Desc.t) name =
  match
    List.find_opt (fun (f : Desc.field) -> f.f_name = name) d.Desc.d_fields
  with
  | Some f -> f
  | None ->
      Diag.error Diag.Assembly "machine %s has no control-word field %S"
        d.Desc.d_name name

(* Sequencer opcode values. *)
let seq_next = 0
let seq_jump = 1
let seq_branch = 2
let seq_dispatch = 3
let seq_call = 4
let seq_return = 5
let seq_halt = 6

let cond_code = function
  | Desc.C_flag (f, true) -> 1 + Sim.flag_index f
  | Desc.C_flag (f, false) -> 6 + Sim.flag_index f
  | Desc.C_reg_zero (_, true) -> 11
  | Desc.C_reg_zero (_, false) -> 12
  | Desc.C_int_pending -> 13
  | Desc.C_reg_mask _ -> 14

type writer = { w : word; mutable set_by : (string * int) list }

let set_field wr (f : Desc.field) value =
  if value < 0 || (f.f_width < 62 && value lsr f.f_width <> 0) then
    Diag.error Diag.Assembly "value %d does not fit field %s (%d bits)" value
      f.f_name f.f_width;
  (match List.assoc_opt f.f_name wr.set_by with
  | Some v when v <> value ->
      Diag.error Diag.Compaction
        "control-word field clash on %s: %d vs %d (ops cannot share this word)"
        f.f_name v value
  | Some _ | None -> ());
  wr.set_by <- (f.f_name, value) :: wr.set_by;
  for i = 0 to f.f_width - 1 do
    wr.w.(f.f_lo + i) <- (value lsr i) land 1 = 1
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
  let wr = { w = Array.make (word_bits d) false; set_by = [] } in
  List.iter
    (fun op ->
      List.iter
        (fun (fname, v) -> set_field wr (field d fname) v)
        (Inst.op_field_values op))
    inst.Inst.ops;
  let setf name v = set_field wr (field d name) v in
  (match inst.Inst.next with
  | Inst.Next -> setf "seq" seq_next
  | Inst.Jump a ->
      setf "seq" seq_jump;
      setf "addr" a
  | Inst.Branch (c, a) ->
      setf "seq" seq_branch;
      setf "cond" (cond_code c);
      setf "addr" a;
      (match c with
      | Desc.C_reg_zero (r, _) -> setf "breg" r
      | Desc.C_reg_mask (r, m) ->
          setf "breg" r;
          setf "mask" (mask_value m)
      | Desc.C_flag _ | Desc.C_int_pending -> ())
  | Inst.Dispatch { dreg; hi; lo; base } ->
      setf "seq" seq_dispatch;
      setf "breg" dreg;
      setf "addr" base;
      setf "dspec" ((hi lsl 6) lor lo)
  | Inst.Call a ->
      setf "seq" seq_call;
      setf "addr" a
  | Inst.Return -> setf "seq" seq_return
  | Inst.Halt -> setf "seq" seq_halt);
  wr.w

(* Bits of control store a program occupies: the survey's horizontal-vs-
   vertical space comparison (T7). *)
let program_bits d insts = List.length insts * word_bits d

let decode_fields (d : Desc.t) (w : word) : (string * int) list =
  List.map
    (fun (f : Desc.field) ->
      let v = ref 0 in
      for i = f.f_width - 1 downto 0 do
        v := (!v lsl 1) lor (if w.(f.f_lo + i) then 1 else 0)
      done;
      (f.f_name, !v))
    d.Desc.d_fields

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
  let fields = decode_fields d w in
  let const_sets tm =
    List.filter_map
      (fun (fs : Desc.field_setting) ->
        match fs.fs_value with
        | Desc.Fv_const v -> Some (fs.fs_field, v)
        | Desc.Fv_opnd _ -> None)
      tm.Desc.t_fields
  in
  let candidates =
    Desc.templates d
    |> List.filter_map (fun tm ->
           let consts = const_sets tm in
           if consts = [] then None
           else if
             List.for_all (fun (f, v) -> List.assoc f fields = v) consts
           then Some (tm, List.map fst consts)
           else None)
  in
  let survivors =
    List.filter
      (fun (_, cf) ->
        not
          (List.exists
             (fun (_, cf') ->
               List.length cf < List.length cf'
               && List.for_all (fun f -> List.mem f cf') cf)
             candidates))
      candidates
  in
  List.filter_map
    (fun ((tm : Desc.template), _) ->
      let args =
        Array.to_list
          (Array.mapi
             (fun i (spec : Desc.operand_spec) ->
               let v =
                 List.find_map
                   (fun (fs : Desc.field_setting) ->
                     match fs.fs_value with
                     | Desc.Fv_opnd j when j = i ->
                         Some (List.assoc fs.fs_field fields)
                     | _ -> None)
                   tm.Desc.t_fields
               in
               match (v, spec.o_kind) with
               | Some r, Desc.O_reg _ -> Some (Inst.A_reg r)
               | Some n, Desc.O_imm width ->
                   Some (Inst.A_imm (Bitvec.of_int ~width n))
               | None, _ -> None)
             tm.Desc.t_operands)
      in
      if List.exists (fun a -> a = None) args then None
      else
        match
          Inst.make d tm.Desc.t_name (List.map Option.get args)
        with
        | op -> Some op
        | exception Invalid_argument _ -> None)
    survivors

let decode_next (d : Desc.t) (w : word) : Inst.next =
  let fields = decode_fields d w in
  let f name = List.assoc_opt name fields in
  let addr = match f "addr" with Some a -> a | None -> 0 in
  let breg = match f "breg" with Some r -> r | None -> 0 in
  let seq = match f "seq" with Some s -> s | None -> 0 in
  if seq = seq_next then Inst.Next
  else if seq = seq_jump then Inst.Jump addr
  else if seq = seq_call then Inst.Call addr
  else if seq = seq_return then Inst.Return
  else if seq = seq_halt then Inst.Halt
  else if seq = seq_dispatch then
    let dspec = match f "dspec" with Some v -> v | None -> 0 in
    Inst.Dispatch
      { dreg = breg; hi = dspec lsr 6; lo = dspec land 0x3F; base = addr }
  else if seq = seq_branch then begin
    let code = match f "cond" with Some c -> c | None -> 0 in
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
        let mval = match f "mask" with Some m -> m | None -> 0 in
        let nbits =
          match
            List.find_opt (fun (fd : Desc.field) -> fd.f_name = "mask")
              d.Desc.d_fields
          with
          | Some fd -> fd.f_width / 2
          | None -> 0
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
