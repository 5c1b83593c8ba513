(* Unit and property tests for the bitvector substrate. *)

open Msl_bitvec

let bv w v = Bitvec.of_int ~width:w v

let check_bv msg expected actual =
  Alcotest.(check string) msg
    (Fmt.str "%a" Bitvec.pp expected)
    (Fmt.str "%a" Bitvec.pp actual)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- construction -------------------------------------------------------- *)

let test_construction () =
  check_bv "zero" (bv 8 0) (Bitvec.zero 8);
  check_bv "ones 4" (bv 4 15) (Bitvec.ones 4);
  check_bv "of_int truncates" (bv 4 0xA) (bv 4 0xFA);
  check_bv "negative encodes two's complement" (bv 8 0xFF) (bv 8 (-1));
  check_int "width" 13 (Bitvec.width (Bitvec.zero 13));
  check_bv "of_string decimal" (bv 16 1234) (Bitvec.of_string ~width:16 "1234");
  check_bv "of_string hex" (bv 16 0xBEEF) (Bitvec.of_string ~width:16 "0xbeef");
  check_bv "of_string binary" (bv 8 0b1010) (Bitvec.of_string ~width:8 "0b1010");
  check_bv "of_string octal" (bv 8 0o17) (Bitvec.of_string ~width:8 "0o17");
  check_bv "of_string negative" (bv 8 0xFF) (Bitvec.of_string ~width:8 "-1")

let test_construction_errors () =
  let raises f = Alcotest.check_raises "invalid" (Invalid_argument "") f in
  let raises_any name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  ignore raises;
  raises_any "width 0" (fun () -> Bitvec.zero 0);
  raises_any "width 65" (fun () -> Bitvec.zero 65);
  raises_any "of_string overflow" (fun () -> Bitvec.of_string ~width:4 "16");
  raises_any "of_string junk" (fun () -> Bitvec.of_string ~width:4 "zap");
  raises_any "of_string too negative" (fun () ->
      Bitvec.of_string ~width:8 "-129");
  raises_any "mixed widths" (fun () -> Bitvec.add (bv 8 1) (bv 9 1))

(* -- arithmetic ---------------------------------------------------------- *)

let test_add_flags () =
  let r, f = Bitvec.add_f (bv 8 200) (bv 8 100) in
  check_bv "wraps" (bv 8 44) r;
  check_bool "carry out" true f.Bitvec.carry;
  check_bool "no signed overflow" false f.Bitvec.overflow;
  let r, f = Bitvec.add_f (bv 8 127) (bv 8 1) in
  check_bv "127+1" (bv 8 128) r;
  check_bool "signed overflow" true f.Bitvec.overflow;
  check_bool "negative" true f.Bitvec.negative;
  let _, f = Bitvec.add_f (bv 8 0) (bv 8 0) in
  check_bool "zero flag" true f.Bitvec.zero

let test_sub_flags () =
  let r, f = Bitvec.sub_f (bv 8 5) (bv 8 7) in
  check_bv "5-7" (bv 8 254) r;
  check_bool "borrow" true f.Bitvec.carry;
  let r, f = Bitvec.sub_f (bv 8 7) (bv 8 7) in
  check_bool "zero" true f.Bitvec.zero;
  check_bool "no borrow" false f.Bitvec.carry;
  check_bv "is zero" (bv 8 0) r

let test_width64 () =
  let m = Bitvec.ones 64 in
  let r, f = Bitvec.add_f m (bv 64 1) in
  check_bool "64-bit carry wrap" true f.Bitvec.carry;
  check_bool "64-bit result zero" true (Bitvec.is_zero r);
  let r, f = Bitvec.adc m (Bitvec.zero 64) true in
  check_bool "adc carry" true f.Bitvec.carry;
  check_bool "adc wraps to zero" true (Bitvec.is_zero r);
  let _, f = Bitvec.adc m (Bitvec.zero 64) false in
  check_bool "no carry without cin" false f.Bitvec.carry

let test_mul () =
  let r, f = Bitvec.mul_f (bv 8 16) (bv 8 15) in
  check_bv "16*15" (bv 8 240) r;
  check_bool "fits" false f.Bitvec.overflow;
  let _, f = Bitvec.mul_f (bv 8 16) (bv 8 16) in
  check_bool "256 overflows 8 bits" true f.Bitvec.overflow;
  let r, f = Bitvec.mul_f (bv 64 (1 lsl 40)) (bv 64 (1 lsl 10)) in
  check_bv "2^50" (Bitvec.shift_left (bv 64 1) 50) r;
  check_bool "fits 64" false f.Bitvec.overflow;
  let _, f = Bitvec.mul_f (Bitvec.shift_left (bv 64 1) 40) (Bitvec.shift_left (bv 64 1) 40) in
  check_bool "2^80 overflows" true f.Bitvec.overflow

let test_div () =
  check_bv "udiv" (bv 8 21) (Bitvec.udiv (bv 8 255) (bv 8 12));
  check_bv "urem" (bv 8 3) (Bitvec.urem (bv 8 255) (bv 8 12));
  (match Bitvec.udiv (bv 8 1) (bv 8 0) with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "expected Division_by_zero")

(* -- shifts -------------------------------------------------------------- *)

let test_shifts () =
  check_bv "shl" (bv 8 0b10100) (Bitvec.shift_left (bv 8 0b101) 2);
  check_bv "shr" (bv 8 0b1) (Bitvec.shift_right (bv 8 0b101) 2);
  check_bv "shl overflow drops" (bv 4 0b1000) (Bitvec.shift_left (bv 4 0b1101) 3);
  check_bv "shift beyond width" (bv 8 0) (Bitvec.shift_right (bv 8 255) 9);
  check_bv "sra sign fill" (bv 8 0b11110000) (Bitvec.shift_right_arith (bv 8 0b11000000) 2);
  check_bv "sra positive" (bv 8 0b0001) (Bitvec.shift_right_arith (bv 8 0b0100) 2);
  check_bv "rol" (bv 8 0b00000011) (Bitvec.rotate_left (bv 8 0b10000001) 1);
  check_bv "ror" (bv 8 0b11000000) (Bitvec.rotate_right (bv 8 0b10000001) 1);
  check_bv "rol full circle" (bv 8 0xAB) (Bitvec.rotate_left (bv 8 0xAB) 8)

let test_shift_uf_flag () =
  (* the "UF" bit of the survey's SIMPL example: last bit shifted out *)
  let _, f = Bitvec.shift_right_f (bv 8 0b101) 1 in
  check_bool "uf of odd" true f.Bitvec.shifted_out;
  let _, f = Bitvec.shift_right_f (bv 8 0b100) 1 in
  check_bool "uf of even" false f.Bitvec.shifted_out;
  let _, f = Bitvec.shift_right_f (bv 8 0b100) 3 in
  check_bool "uf bit 2" true f.Bitvec.shifted_out;
  let _, f = Bitvec.shift_left_f (bv 8 0b10000000) 1 in
  check_bool "uf msb out" true f.Bitvec.shifted_out

(* -- structure ----------------------------------------------------------- *)

let test_fields () =
  let v = bv 16 0xABCD in
  check_bv "extract nibble" (bv 4 0xB) (Bitvec.extract ~hi:11 ~lo:8 v);
  check_bv "extract low" (bv 8 0xCD) (Bitvec.extract ~hi:7 ~lo:0 v);
  check_bv "insert" (bv 16 0xA5CD)
    (Bitvec.insert ~hi:11 ~lo:8 ~into:v (bv 4 5));
  check_bv "concat" (bv 16 0xABCD) (Bitvec.concat (bv 8 0xAB) (bv 8 0xCD));
  check_bv "resize up" (bv 16 0xCD) (Bitvec.resize ~width:16 (bv 8 0xCD));
  check_bv "resize down" (bv 4 0xD) (Bitvec.resize ~width:4 (bv 8 0xCD));
  check_bv "sign extend neg" (bv 16 0xFFCD) (Bitvec.sign_extend ~width:16 (bv 8 0xCD));
  check_bv "sign extend pos" (bv 16 0x4D) (Bitvec.sign_extend ~width:16 (bv 8 0x4D))

let test_observation () =
  check_bool "msb" true (Bitvec.msb (bv 8 0x80));
  check_bool "lsb" true (Bitvec.lsb (bv 8 0x81));
  check_bool "bit 3" true (Bitvec.bit (bv 8 0b1000) 3);
  check_int "popcount 0b1111" 4 (Bitvec.popcount (bv 8 0b1111));
  check_int "popcount 0xAB" 5 (Bitvec.popcount (bv 8 0xAB));
  check_int "signed -1" (-1) (Int64.to_int (Bitvec.to_signed_int64 (bv 8 0xFF)));
  check_int "signed 127" 127 (Int64.to_int (Bitvec.to_signed_int64 (bv 8 0x7F)));
  check_int "unsigned compare" 1 (Bitvec.compare_unsigned (bv 8 0xFF) (bv 8 1));
  check_int "signed compare" (-1) (Bitvec.compare_signed (bv 8 0xFF) (bv 8 1))

let test_printing () =
  Alcotest.(check string) "decimal" "255" (Bitvec.to_string (bv 8 255));
  Alcotest.(check string) "hex" "0xab" (Bitvec.to_string ~base:16 (bv 8 0xAB));
  Alcotest.(check string) "binary" "0b1010" (Bitvec.to_string ~base:2 (bv 4 10));
  Alcotest.(check string) "hex padded" "0x00ff" (Bitvec.to_string ~base:16 (bv 16 255));
  Alcotest.(check string) "pp" "8'd7" (Fmt.str "%a" Bitvec.pp (bv 8 7))

(* -- properties ---------------------------------------------------------- *)

let arb_pair w =
  QCheck.map
    (fun (a, b) -> (Bitvec.of_int64 ~width:w a, Bitvec.of_int64 ~width:w b))
    (QCheck.pair QCheck.int64 QCheck.int64)

let prop name w f = QCheck.Test.make ~count:500 ~name (arb_pair w) f

let props w =
  [
    prop (Printf.sprintf "add commutative (w=%d)" w) w (fun (a, b) ->
        Bitvec.equal (Bitvec.add a b) (Bitvec.add b a));
    prop (Printf.sprintf "sub inverse of add (w=%d)" w) w (fun (a, b) ->
        Bitvec.equal (Bitvec.sub (Bitvec.add a b) b) a);
    prop (Printf.sprintf "neg involutive (w=%d)" w) w (fun (a, _) ->
        Bitvec.equal (Bitvec.neg (Bitvec.neg a)) a);
    prop (Printf.sprintf "not involutive (w=%d)" w) w (fun (a, _) ->
        Bitvec.equal (Bitvec.lognot (Bitvec.lognot a)) a);
    prop (Printf.sprintf "de morgan (w=%d)" w) w (fun (a, b) ->
        Bitvec.equal
          (Bitvec.lognot (Bitvec.logand a b))
          (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)));
    prop (Printf.sprintf "xor self-inverse (w=%d)" w) w (fun (a, b) ->
        Bitvec.equal (Bitvec.logxor (Bitvec.logxor a b) b) a);
    prop (Printf.sprintf "succ/pred (w=%d)" w) w (fun (a, _) ->
        Bitvec.equal (Bitvec.pred (Bitvec.succ a)) a);
    prop (Printf.sprintf "rotate round trip (w=%d)" w) w (fun (a, _) ->
        Bitvec.equal (Bitvec.rotate_right (Bitvec.rotate_left a 3) 3) a);
    prop (Printf.sprintf "shl is mul by 2 (w=%d)" w) w (fun (a, _) ->
        Bitvec.equal (Bitvec.shift_left a 1) (Bitvec.add a a));
    prop (Printf.sprintf "extract/concat round trip (w=%d)" w) w (fun (a, _) ->
        if w < 2 then true
        else
          let mid = w / 2 in
          let hi = Bitvec.extract ~hi:(w - 1) ~lo:mid a in
          let lo = Bitvec.extract ~hi:(mid - 1) ~lo:0 a in
          Bitvec.equal (Bitvec.concat hi lo) a);
    prop (Printf.sprintf "udiv/urem reconstruct (w=%d)" w) w (fun (a, b) ->
        QCheck.assume (not (Bitvec.is_zero b));
        let q = Bitvec.udiv a b and r = Bitvec.urem a b in
        Bitvec.equal (Bitvec.add (Bitvec.mul q b) r) a);
    prop (Printf.sprintf "carry iff true sum exceeds mask (w=%d)" w) w
      (fun (a, b) ->
        if w > 62 then true
        else
          let _, f = Bitvec.add_f a b in
          let exact =
            Int64.add (Bitvec.to_int64 a) (Bitvec.to_int64 b)
          in
          f.Bitvec.carry
          = (Int64.unsigned_compare exact
               (Bitvec.to_int64 (Bitvec.ones w))
             > 0));
  ]

(* Resizing to a vector's own width is the identity (the interpreter
   resizes every operand and result, mostly to the width they already
   have); a width outside 1..64 still raises, whatever the vector. *)
let resize_identity =
  QCheck.Test.make ~count:500 ~name:"resize to own width is identity"
    QCheck.(pair (int_range 1 64) int64)
    (fun (w, x) ->
      let v = Bitvec.of_int64 ~width:w x in
      let raises width =
        match Bitvec.resize ~width v with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Bitvec.equal (Bitvec.resize ~width:(Bitvec.width v) v) v
      && raises 0 && raises 65 && raises (-w))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      (props 8 @ props 16 @ props 64 @ props 5 @ [ resize_identity ])
  in
  Alcotest.run "bitvec"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "construction errors" `Quick test_construction_errors;
          Alcotest.test_case "add flags" `Quick test_add_flags;
          Alcotest.test_case "sub flags" `Quick test_sub_flags;
          Alcotest.test_case "width 64" `Quick test_width64;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "div" `Quick test_div;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "shift UF flag" `Quick test_shift_uf_flag;
          Alcotest.test_case "fields" `Quick test_fields;
          Alcotest.test_case "observation" `Quick test_observation;
          Alcotest.test_case "printing" `Quick test_printing;
        ] );
      ("properties", qsuite);
    ]
