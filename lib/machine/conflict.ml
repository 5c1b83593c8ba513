(* The control-word conflict model (DeWitt 1975, survey ref [7]).

   Decides whether two microoperation instances may be placed in the same
   microinstruction.  Conflicts arise from:
   - encoding:   both need the same control-word field with different values
   - resources:  both occupy the same functional unit in the same phase
   - memory:     both touch main memory (one memory port)
   - writes:     both write the same register in the same phase
   - flags:      both set condition flags in the same phase

   Data dependence between the two ops is *not* checked here; that is the
   scheduler's job (Mir.Dataflow).  This module answers only "can these
   coexist", which is exactly DeWitt's control-word question. *)

type reason =
  | Field_clash of string * int * int
  | Unit_clash of string * int  (* unit, phase *)
  | Memory_port
  | Write_clash of string  (* register written twice in one phase *)
  | Flag_clash of Rtl.flag

let pp_reason ppf = function
  | Field_clash (f, a, b) ->
      Fmt.pf ppf "field %s needed with values %d and %d" f a b
  | Unit_clash (u, p) -> Fmt.pf ppf "unit %s busy in phase %d" u p
  | Memory_port -> Fmt.string ppf "memory port busy"
  | Write_clash r -> Fmt.pf ppf "register %s written twice in one phase" r
  | Flag_clash f -> Fmt.pf ppf "flag %s set twice in one phase" (Rtl.flag_name f)

let rec find_map_pair f = function
  | [] -> None
  | x :: rest -> (
      match List.find_map (f x) rest with
      | Some _ as r -> r
      | None -> find_map_pair f rest)

(* Two literally identical instances are always compatible: they ask for
   exactly the same control-word bits. *)
let pair_conflict d (op1 : Inst.op) (op2 : Inst.op) =
  let x1 = Desc.facts d op1.Inst.op_t and x2 = Desc.facts d op2.Inst.op_t in
  let t1 = op1.Inst.op_t and t2 = op2.Inst.op_t in
  let s1 = x1.Desc.x_slots and s2 = x2.Desc.x_slots in
  (* each of op1's settings against op2's, in order *)
  let rec field_clash i j =
    if i = Array.length s1 then None
    else if j = Array.length s2 then field_clash (i + 1) 0
    else if s1.(i) <> s2.(j) then field_clash i (j + 1)
    else
      let v1 = Inst.setting_value x1 op1 i in
      let v2 = Inst.setting_value x2 op2 j in
      if v1 <> v2 then
        Some (Field_clash (d.Desc.d_fields.(s1.(i)).Desc.f_name, v1, v2))
      else field_clash i (j + 1)
  in
  if Inst.identical op1 op2 then None
  else
    match field_clash 0 0 with
    | Some _ as c -> c
    | None -> (
        let same_phase = t1.Desc.t_phase = t2.Desc.t_phase in
        let unit_clash =
          if same_phase && x1.Desc.x_units land x2.Desc.x_units <> 0 then
            List.find_opt (fun u -> List.mem u t2.Desc.t_units) t1.Desc.t_units
          else None
        in
        match unit_clash with
        | Some u -> Some (Unit_clash (u, t1.Desc.t_phase))
        | None ->
            if x1.Desc.x_mem && x2.Desc.x_mem then Some Memory_port
            else if same_phase then
              let r =
                Inst.first_common (Inst.op_writes d op1) (Inst.op_writes d op2)
              in
              if r >= 0 then Some (Write_clash (Desc.reg_name d r))
              else if x1.Desc.x_set_flags <> 0 && x2.Desc.x_set_flags <> 0 then
                let sets f = x1.Desc.x_set_flags lsr Rtl.flag_index f land 1 in
                Some (Flag_clash (List.find (fun f -> sets f = 1) Rtl.all_flags))
              else None
            else None)

(* Can [op] join the ops already placed in a microinstruction? *)
let fits d placed op =
  let rec loop = function
    | [] -> Ok ()
    | p :: rest -> (
        match pair_conflict d p op with
        | Some r -> Error r
        | None -> loop rest)
  in
  loop placed

(* Validate a fully-formed microinstruction (used on hand-written and
   S*-composed code, where the human did the packing). *)
let check_inst d (inst : Inst.t) =
  match find_map_pair (fun a b -> pair_conflict d a b) inst.Inst.ops with
  | Some r -> Error r
  | None -> Ok ()
