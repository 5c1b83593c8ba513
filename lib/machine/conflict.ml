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

(* Check one unordered pair of distinct ops. *)
let pair_conflict_distinct d op1 op2 =
  let fields1 = Inst.op_field_values op1 and fields2 = Inst.op_field_values op2 in
  let field_clash =
    List.find_map
      (fun (f1, v1) ->
        List.find_map
          (fun (f2, v2) ->
            if f1 = f2 && v1 <> v2 then Some (Field_clash (f1, v1, v2)) else None)
          fields2)
      fields1
  in
  match field_clash with
  | Some _ as c -> c
  | None -> (
      let same_phase = Inst.op_phase op1 = Inst.op_phase op2 in
      let unit_clash =
        if not same_phase then None
        else
          List.find_map
            (fun u1 ->
              if List.mem u1 (Inst.op_units op2) then
                Some (Unit_clash (u1, Inst.op_phase op1))
              else None)
            (Inst.op_units op1)
      in
      match unit_clash with
      | Some _ as c -> c
      | None ->
          if Inst.op_touches_memory op1 && Inst.op_touches_memory op2 then
            Some Memory_port
          else if same_phase then
            let ww =
              List.find_map
                (fun r1 ->
                  if List.mem r1 (Inst.op_writes d op2) then
                    Some (Write_clash (Desc.reg_name d r1))
                  else None)
                (Inst.op_writes d op1)
            in
            match ww with
            | Some _ as c -> c
            | None -> (
                match (Inst.op_sets_flags op1, Inst.op_sets_flags op2) with
                | f1 :: _, _ :: _ -> Some (Flag_clash f1)
                | _, _ -> None)
          else None)

(* Two literally identical instances are always compatible: they ask for
   exactly the same control-word bits. *)
let pair_conflict d op1 op2 =
  if
    op1.Inst.op_t.Desc.t_name = op2.Inst.op_t.Desc.t_name
    && op1.Inst.op_args = op2.Inst.op_args
  then None
  else pair_conflict_distinct d op1 op2

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
