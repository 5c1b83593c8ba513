(** SIMPL → MIR (survey §2.2.1).

    Variables are machine registers; [alias] is the equivalence statement;
    all shifts compile flag-setting so the shifted-out UF bit is testable;
    relational conditions other than comparison with zero synthesise a
    flag-setting subtraction into the reserved scratch register. *)

val compile : Msl_machine.Desc.t -> Ast.program -> Msl_mir.Mir.program
(** @raise Msl_util.Diag.Error on names that are not machine registers,
    non-power-of-two case statements, and similar semantic errors. *)

val parse_compile :
  ?file:string -> Msl_machine.Desc.t -> string -> Msl_mir.Mir.program
