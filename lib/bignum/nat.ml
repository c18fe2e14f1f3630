(* Little-endian limb arrays in base 2^26. The invariant maintained by
   every constructor is that the highest limb is nonzero, so [zero] is
   the empty array and structural equality coincides with numeric
   equality. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let is_zero n = Array.length n = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec limbs acc n = if n = 0 then acc else limbs (n land limb_mask :: acc) (n lsr limb_bits) in
    let l = List.rev (limbs [] n) in
    Array.of_list l
  end

let one = of_int 1
let two = of_int 2

let to_int n =
  let len = Array.length n in
  if len * limb_bits > 62 && len > 3 then failwith "Nat.to_int: overflow";
  let v = ref 0 in
  for i = len - 1 downto 0 do
    if !v > max_int lsr limb_bits then failwith "Nat.to_int: overflow";
    v := (!v lsl limb_bits) lor n.(i)
  done;
  !v

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + limb_base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land limb_mask;
          carry := t lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land limb_mask;
          carry := t lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let shift_left (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) (bits : int) : t =
  if bits < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let num_bits (a : t) =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    (la - 1) * limb_bits + width top 0
  end

let logop op (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = max la lb in
  let r = Array.make lr 0 in
  for i = 0 to lr - 1 do
    r.(i) <- op (if i < la then a.(i) else 0) (if i < lb then b.(i) else 0)
  done;
  normalize r

let logand = logop ( land )
let logor = logop ( lor )
let logxor = logop ( lxor )

let succ a = add a one
let pred a = sub a one

let is_even a = Array.length a = 0 || a.(0) land 1 = 0
let is_odd a = not (is_even a)

(* Division: Knuth Algorithm D on 26-bit limbs, with the standard
   normalization so the divisor's top limb has its high bit set.
   Single-limb divisors take a fast path. *)

let divmod_small (a : t) (b : int) : t * int =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / b;
    r := cur mod b
  done;
  (normalize q, !r)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else begin
    (* Normalize: shift so divisor top limb >= base/2. *)
    let shift = limb_bits - (num_bits b - (Array.length b - 1) * limb_bits) in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    let u = Array.append u (Array.make (m + n + 1 - Array.length u + 1) 0) in
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vsec = v.(n - 2) in
    for j = m downto 0 do
      (* Estimate q_hat from the top two limbs of the current remainder. *)
      let top2 = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (top2 / vtop) and rhat = ref (top2 mod vtop) in
      if !qhat >= limb_base then begin qhat := limb_base - 1; rhat := top2 - !qhat * vtop end;
      let continue = ref true in
      while !continue && !rhat < limb_base
            && !qhat * vsec > (!rhat lsl limb_bits) lor u.(j + n - 2) do
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= limb_base then continue := false
      done;
      (* Multiply and subtract: u[j..j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin u.(i + j) <- d + limb_base; borrow := 1 end
        else begin u.(i + j) <- d; borrow := 0 end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        u.(j + n) <- d + limb_base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Byte and hex conversions pack fixed-width digits straight into
   limbs, least significant digit first, so they are linear in the
   length. *)

let of_digits_be ~width ~digit (s : string) : t =
  let len = String.length s in
  let r = Array.make (((width * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and have = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (digit s.[i] lsl !have);
    have := !have + width;
    if !have >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      incr k;
      acc := !acc lsr limb_bits;
      have := !have - limb_bits
    end
  done;
  if !have > 0 then r.(!k) <- !acc;
  normalize r

(* The [j]th [width]-bit digit of [a], counting from the least
   significant; a digit may straddle two limbs. *)
let digit_at (a : t) ~width j =
  let bit = j * width in
  let limb = bit / limb_bits and off = bit mod limb_bits in
  let v = a.(limb) lsr off in
  let v =
    if off + width > limb_bits && limb + 1 < Array.length a then
      v lor (a.(limb + 1) lsl (limb_bits - off))
    else v
  in
  v land ((1 lsl width) - 1)

let of_bytes_be (s : string) : t = of_digits_be ~width:8 ~digit:Char.code s

let to_bytes_be ?len (a : t) : string =
  let nbytes = (num_bits a + 7) / 8 in
  let out_len = match len with
    | None -> max nbytes 1
    | Some l ->
      if l < max nbytes 1 && not (is_zero a && l >= 0) then
        invalid_arg "Nat.to_bytes_be: length too small";
      l
  in
  let b = Bytes.make out_len '\000' in
  for j = 0 to nbytes - 1 do
    Bytes.set b (out_len - 1 - j) (Char.chr (digit_at a ~width:8 j))
  done;
  Bytes.to_string b

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_hex: bad digit"

let of_hex (s : string) : t =
  if String.length s = 0 then invalid_arg "Nat.of_hex: empty";
  of_digits_be ~width:4 ~digit:hex_digit s

let to_hex (a : t) : string =
  if is_zero a then "0"
  else begin
    let n = (num_bits a + 3) / 4 in
    String.init n (fun i -> "0123456789abcdef".[digit_at a ~width:4 (n - 1 - i)])
  end

let of_decimal (s : string) : t =
  if String.length s = 0 then invalid_arg "Nat.of_decimal: empty";
  let n = ref zero in
  let ten = of_int 10 in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> n := add (mul !n ten) (of_int (Char.code c - Char.code '0'))
      | _ -> invalid_arg "Nat.of_decimal: bad digit")
    s;
  !n

let to_decimal (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go v =
      if not (is_zero v) then begin
        let q, r = divmod_small v 10 in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + r))
      end
    in
    go a;
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_decimal a)

let to_limbs ~len (a : t) =
  let la = Array.length a in
  if la > len then invalid_arg "Nat.to_limbs: length too small";
  let r = Array.make len 0 in
  Array.blit a 0 r 0 la;
  r

let of_limbs (a : int array) : t =
  Array.iter (fun l -> if l < 0 || l > limb_mask then invalid_arg "Nat.of_limbs: bad limb") a;
  normalize (Array.copy a)

let num_limbs (a : t) = Array.length a
