(* Fixed-width bitvectors over int64.  Invariant: [v] has no bits set at or
   above [w].  All width checks funnel through [check_same] / [norm]. *)

type t = { w : int; v : int64 }

type flags = {
  carry : bool;
  overflow : bool;
  zero : bool;
  negative : bool;
  shifted_out : bool;
}

let no_flags =
  { carry = false; overflow = false; zero = false; negative = false;
    shifted_out = false }

let check_width w =
  if w < 1 || w > 64 then
    invalid_arg (Printf.sprintf "Bitvec: width %d outside 1..64" w)

let mask w = if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let norm w v = { w; v = Int64.logand v (mask w) }

let check_same op a b =
  if a.w <> b.w then
    invalid_arg
      (Printf.sprintf "Bitvec.%s: width mismatch (%d vs %d)" op a.w b.w)

(* One shared zero per width.  Filling a large array with a fresh
   (young) zero makes [Array.make] force a minor collection first, so
   every simulator load would pay one; a shared value is promoted once
   and stays put. *)
let zeros = Array.init 64 (fun i -> { w = i + 1; v = 0L })

let zero w =
  check_width w;
  zeros.(w - 1)

let ones w =
  check_width w;
  { w; v = mask w }

let of_int64 ~width v =
  check_width width;
  norm width v

let of_int ~width v = of_int64 ~width (Int64.of_int v)

let one_bit = { w = 1; v = 1L }
let of_bool b = if b then one_bit else zeros.(0)

let width t = t.w
let to_int64 t = t.v

let to_int t =
  if Int64.compare t.v (Int64.of_int max_int) > 0 || Int64.compare t.v 0L < 0
  then invalid_arg "Bitvec.to_int: value does not fit in int"
  else Int64.to_int t.v

let msb t = Int64.logand (Int64.shift_right_logical t.v (t.w - 1)) 1L = 1L
let lsb t = Int64.logand t.v 1L = 1L

let bit t i =
  if i < 0 || i >= t.w then
    invalid_arg (Printf.sprintf "Bitvec.bit: index %d outside 0..%d" i (t.w - 1))
  else Int64.logand (Int64.shift_right_logical t.v i) 1L = 1L

let to_signed_int64 t =
  if t.w = 64 || not (msb t) then t.v
  else Int64.logor t.v (Int64.lognot (mask t.w))

let is_zero t = t.v = 0L

let popcount t =
  let rec loop acc v =
    if v = 0L then acc else loop (acc + 1) (Int64.logand v (Int64.sub v 1L))
  in
  loop 0 t.v

let equal a b = a.w = b.w && a.v = b.v

let compare_unsigned a b =
  check_same "compare_unsigned" a b;
  Int64.unsigned_compare a.v b.v

let compare_signed a b =
  check_same "compare_signed" a b;
  Int64.compare (to_signed_int64 a) (to_signed_int64 b)

let flags_of result ~carry ~overflow ?(shifted_out = false) () =
  { carry; overflow; zero = is_zero result; negative = msb result; shifted_out }

(* Addition with explicit carry-in.  For widths < 64 the exact sum fits in
   int64, so the carry is simply bit [w] of the raw sum; width 64 needs the
   wraparound test. *)
let adc a b cin =
  check_same "adc" a b;
  let w = a.w in
  let raw = Int64.add (Int64.add a.v b.v) (if cin then 1L else 0L) in
  let result = norm w raw in
  let carry =
    if w < 64 then Int64.logand (Int64.shift_right_logical raw w) 1L = 1L
    else
      (* wrapped iff result < a, or result = a with both carry-in and b<>0 *)
      let c = Int64.unsigned_compare raw a.v in
      c < 0 || (c = 0 && cin && b.v <> 0L)
  in
  let sa = msb a and sb = msb b and sr = msb result in
  let overflow = sa = sb && sr <> sa in
  (result, flags_of result ~carry ~overflow ())

let add_f a b = adc a b false

(* add, sub and mul skip their [_f] twin's flags, keeping its message *)
let add a b =
  check_same "adc" a b;
  norm a.w (Int64.add a.v b.v)

let lognot t = norm t.w (Int64.lognot t.v)

let sub_f a b =
  check_same "sub" a b;
  let r, f = adc a (lognot b) true in
  (* Borrow is the complement of the carry out of [a + ~b + 1]. *)
  (r, { f with carry = not f.carry })

let sub a b =
  check_same "sub" a b;
  norm a.w (Int64.sub a.v b.v)

let neg t = sub (zero t.w) t
let succ t = add t (norm t.w 1L)
let pred t = sub t (norm t.w 1L)

(* High 64 bits of the unsigned 128-bit product, via 32-bit halves. *)
let umulh a b =
  let lo32 x = Int64.logand x 0xFFFFFFFFL in
  let hi32 x = Int64.shift_right_logical x 32 in
  let al = lo32 a and ah = hi32 a and bl = lo32 b and bh = hi32 b in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid = Int64.add (Int64.add (hi32 ll) (lo32 lh)) (lo32 hl) in
  Int64.add (Int64.add hh (Int64.add (hi32 lh) (hi32 hl))) (hi32 mid)

let mul_f a b =
  check_same "mul" a b;
  let w = a.w in
  let raw = Int64.mul a.v b.v in
  let result = norm w raw in
  let overflow =
    if w = 64 then umulh a.v b.v <> 0L
    else
      (* exact product exceeds the mask, visible either in the raw low word
         or in the 128-bit high word *)
      umulh a.v b.v <> 0L
      || Int64.unsigned_compare raw (mask w) > 0
  in
  (result, flags_of result ~carry:overflow ~overflow ())

let mul a b =
  check_same "mul" a b;
  norm a.w (Int64.mul a.v b.v)

let udiv a b =
  check_same "udiv" a b;
  if b.v = 0L then raise Division_by_zero;
  norm a.w (Int64.unsigned_div a.v b.v)

let urem a b =
  check_same "urem" a b;
  if b.v = 0L then raise Division_by_zero;
  norm a.w (Int64.unsigned_rem a.v b.v)

let logand a b =
  check_same "logand" a b;
  { a with v = Int64.logand a.v b.v }

let logor a b =
  check_same "logor" a b;
  { a with v = Int64.logor a.v b.v }

let logxor a b =
  check_same "logxor" a b;
  { a with v = Int64.logxor a.v b.v }

let shift_left t n =
  if n <= 0 then t
  else if n >= t.w then zero t.w
  else norm t.w (Int64.shift_left t.v n)

let shift_left_f t n =
  if n <= 0 then (t, flags_of t ~carry:false ~overflow:false ())
  else
    let result = shift_left t n in
    let shifted_out = if n <= t.w then bit t (t.w - n) else false in
    (result, flags_of result ~carry:shifted_out ~overflow:false ~shifted_out ())

let shift_right t n =
  if n <= 0 then t
  else if n >= t.w then zero t.w
  else { t with v = Int64.shift_right_logical t.v n }

let shift_right_f t n =
  if n <= 0 then (t, flags_of t ~carry:false ~overflow:false ())
  else
    let result = shift_right t n in
    let shifted_out = if n <= t.w then bit t (n - 1) else false in
    (result, flags_of result ~carry:shifted_out ~overflow:false ~shifted_out ())

let shift_right_arith t n =
  if n <= 0 then t
  else if n >= t.w then if msb t then ones t.w else zero t.w
  else
    let sv = to_signed_int64 t in
    norm t.w (Int64.shift_right sv n)

let rotate_left t n =
  let n = ((n mod t.w) + t.w) mod t.w in
  if n = 0 then t
  else logor (shift_left t n) (shift_right t (t.w - n))

let rotate_right t n = rotate_left t (-n)

let extract ~hi ~lo t =
  if lo < 0 || hi < lo || hi >= t.w then
    invalid_arg
      (Printf.sprintf "Bitvec.extract: [%d..%d] invalid for width %d" hi lo t.w);
  norm (hi - lo + 1) (Int64.shift_right_logical t.v lo)

let insert ~hi ~lo ~into field =
  if lo < 0 || hi < lo || hi >= into.w then
    invalid_arg
      (Printf.sprintf "Bitvec.insert: [%d..%d] invalid for width %d" hi lo
         into.w);
  if field.w <> hi - lo + 1 then
    invalid_arg
      (Printf.sprintf "Bitvec.insert: field width %d, slot width %d" field.w
         (hi - lo + 1));
  let hole = Int64.lognot (Int64.shift_left (mask field.w) lo) in
  { into with
    v = Int64.logor (Int64.logand into.v hole) (Int64.shift_left field.v lo) }

let concat hi lo =
  let w = hi.w + lo.w in
  if w > 64 then
    invalid_arg (Printf.sprintf "Bitvec.concat: combined width %d > 64" w);
  { w; v = Int64.logor (Int64.shift_left hi.v lo.w) lo.v }

let resize ~width t =
  if width = t.w then t else (check_width width; norm width t.v)

let sign_extend ~width t =
  check_width width;
  if width <= t.w then norm width t.v else norm width (to_signed_int64 t)

let of_string ~width s =
  check_width width;
  let v =
    try Int64.of_string s
    with Failure _ -> invalid_arg ("Bitvec.of_string: malformed " ^ s)
  in
  let fits =
    if String.length s > 0 && s.[0] = '-' then
      width = 64
      || Int64.compare v (Int64.neg (Int64.shift_left 1L (width - 1))) >= 0
    else Int64.unsigned_compare v (mask width) <= 0
  in
  if not fits then
    invalid_arg (Printf.sprintf "Bitvec.of_string: %s overflows %d bits" s width);
  norm width v

let to_string ?(base = 10) t =
  let digits per = (t.w + per - 1) / per in
  let radix_str ~prefix ~per ~digit_bits =
    let n = digits per in
    let buf = Buffer.create (n + 2) in
    Buffer.add_string buf prefix;
    for i = n - 1 downto 0 do
      let d =
        Int64.to_int
          (Int64.logand
             (Int64.shift_right_logical t.v (i * digit_bits))
             (Int64.sub (Int64.shift_left 1L digit_bits) 1L))
      in
      Buffer.add_char buf "0123456789abcdef".[d]
    done;
    Buffer.contents buf
  in
  match base with
  | 10 -> Printf.sprintf "%Lu" t.v
  | 16 -> radix_str ~prefix:"0x" ~per:4 ~digit_bits:4
  | 8 -> radix_str ~prefix:"0o" ~per:3 ~digit_bits:3
  | 2 -> radix_str ~prefix:"0b" ~per:1 ~digit_bits:1
  | b -> invalid_arg (Printf.sprintf "Bitvec.to_string: base %d" b)

let pp ppf t = Format.fprintf ppf "%d'd%Lu" t.w t.v
