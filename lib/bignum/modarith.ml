let add ~m a b = Nat.rem (Nat.add a b) m

let sub ~m a b =
  let a = Nat.rem a m and b = Nat.rem b m in
  if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b

let mul ~m a b = Nat.rem (Nat.mul a b) m

(* Exponentiation works on residues held as fixed-length limb arrays
   (base 2^26, little-endian) and multiplies them in place, so one
   [pow] call allocates its buffers once. A [ring] bundles the residue
   representation for one modulus: Montgomery form for odd moduli,
   plain residues with a [Nat.rem] multiply for even ones. *)

let limb_bits = Nat.limb_bits
let limb_mask = (1 lsl limb_bits) - 1

type ctx = {
  m : Nat.t;
  n : int;  (** limbs of [m] *)
  ml : int array;  (** [m]'s limbs *)
  minv : int;  (** [-m^-1 mod 2^26] *)
  r2 : int array;  (** [R^2 mod m], [R = 2^(26n)] *)
  r1 : int array;  (** [R mod m]: one, in Montgomery form *)
}

let context m =
  if Nat.is_even m then invalid_arg "Modarith.context: even modulus";
  let n = Nat.num_limbs m in
  let ml = Nat.to_limbs ~len:n m in
  (* Newton's iteration doubles the correct low bits of m0^-1 (three
     to start with, for any odd m0); wrap-around multiplication keeps
     the low 26 bits exact. *)
  let m0 = ml.(0) in
  let inv = ref m0 in
  for _ = 1 to 4 do
    inv := !inv * (2 - (m0 * !inv)) land limb_mask
  done;
  let r_pow k = Nat.to_limbs ~len:n (Nat.rem (Nat.shift_left Nat.one (k * limb_bits * n)) m) in
  { m; n; ml; minv = - !inv land limb_mask; r2 = r_pow 2; r1 = r_pow 1 }

(* Carry-propagate the unreduced columns in [t] so that every limb but
   the top one is below 2^26. *)
let settle t n =
  let c = ref 0 in
  for j = 0 to n - 2 do
    let v = t.(j) + !c in
    t.(j) <- v land limb_mask;
    c := v asr limb_bits
  done;
  t.(n - 1) <- t.(n - 1) + !c

(* [mont_mul c t a b dst] sets [dst] to [a*b/R mod m] for [a, b < m],
   with [t] ([n] limbs) as scratch; [dst] may alias [a] or [b].
   Coarsely integrated operand scanning with deferred carries: each
   round adds [a*b_i] and the multiple [q*m] that clears the low limb,
   then shifts one limb down. Columns are left unreduced, growing by
   below 2^53 a round, so 63-bit ints hold 128 rounds before [settle]
   must run. The running value stays below [2m] throughout. *)
let mont_mul c t a b dst =
  let n = c.n and m = c.ml and minv = c.minv in
  Array.fill t 0 n 0;
  let a0 = a.(0) and m0 = m.(0) in
  for i = 0 to n - 1 do
    let bi = b.(i) in
    let t0 = t.(0) + (a0 * bi) in
    let q = (t0 land limb_mask) * minv land limb_mask in
    let carry = (t0 + (q * m0)) asr limb_bits in
    (* Bounds: [a], [m] and [t] all hold [n] limbs and [j < n]. *)
    for j = 1 to n - 1 do
      Array.unsafe_set t (j - 1)
        (Array.unsafe_get t j + (Array.unsafe_get a j * bi) + (q * Array.unsafe_get m j))
    done;
    t.(n - 1) <- 0;
    t.(0) <- t.(0) + carry;
    if i land 127 = 127 then settle t n
  done;
  (* Final carry pass into [dst], then one conditional subtraction. *)
  let c = ref 0 in
  for j = 0 to n - 1 do
    let v = t.(j) + !c in
    dst.(j) <- v land limb_mask;
    c := v asr limb_bits
  done;
  let j = ref (n - 1) in
  while !j > 0 && dst.(!j) = m.(!j) do decr j done;
  if !c <> 0 || dst.(!j) >= m.(!j) then begin
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let v = dst.(j) - m.(j) - !borrow in
      dst.(j) <- v land limb_mask;
      borrow := if v < 0 then 1 else 0
    done
  end

type ring = {
  len : int;  (** limbs per residue *)
  one : int array;
  mul : int array -> int array -> int array -> unit;  (** [mul a b dst] *)
  enter : Nat.t -> int array;  (** a fresh residue *)
  leave : int array -> Nat.t;
}

let mont_ring c =
  let t = Array.make c.n 0 in
  let mul a b dst = mont_mul c t a b dst in
  let enter x =
    let r = Nat.to_limbs ~len:c.n (Nat.rem x c.m) in
    mul r c.r2 r;
    r
  in
  let unit = Nat.to_limbs ~len:c.n Nat.one in
  let leave r =
    let out = Array.make c.n 0 in
    mul r unit out;
    Nat.of_limbs out
  in
  { len = c.n; one = c.r1; mul; enter; leave }

let plain_ring m =
  let len = Nat.num_limbs m in
  let reduce x = Nat.to_limbs ~len (Nat.rem x m) in
  let mul a b dst =
    Array.blit (reduce (Nat.mul (Nat.of_limbs a) (Nat.of_limbs b))) 0 dst 0 len
  in
  { len; one = reduce Nat.one; mul; enter = reduce; leave = Nat.of_limbs }

(* Left-to-right sliding windows. The window width grows with the
   exponent length (the usual thresholds); [odd_powers] holds
   [b, b^3, ..., b^(2^w - 1)]. *)
let window_bits nbits =
  if nbits > 671 then 6
  else if nbits > 239 then 5
  else if nbits > 79 then 4
  else if nbits > 23 then 3
  else if nbits > 6 then 2
  else 1

let odd_powers ring b w =
  let tbl = Array.make (1 lsl (w - 1)) b in
  if w > 1 then begin
    let b2 = Array.make ring.len 0 in
    ring.mul b b b2;
    for j = 1 to Array.length tbl - 1 do
      let r = Array.make ring.len 0 in
      ring.mul tbl.(j - 1) b2 r;
      tbl.(j) <- r
    done
  end;
  tbl

(* [schedule e w] marks, for every bit position of [e], the odd window
   value whose multiplication lands there, or 0: each window starts at
   a set bit and ends at the lowest set bit within [w] places. *)
let schedule e w =
  let s = Array.make (Nat.num_bits e) 0 in
  let i = ref (Array.length s - 1) in
  while !i >= 0 do
    if not (Nat.bit e !i) then decr i
    else begin
      let lo = ref (max 0 (!i - w + 1)) in
      while not (Nat.bit e !lo) do incr lo done;
      let v = ref 0 in
      for j = !i downto !lo do
        v := (!v lsl 1) lor Bool.to_int (Nat.bit e j)
      done;
      s.(!lo) <- !v;
      i := !lo - 1
    end
  done;
  s

(* [multi_pow ring terms] is the product of [b^e] over [terms]. All
   terms share one squaring chain (simultaneous exponentiation, Shamir's
   trick); each brings its own window table. Squarings are skipped
   while the accumulator is still one. *)
let multi_pow ring terms =
  let windows = Array.map (fun (_, e) -> window_bits (Nat.num_bits e)) terms in
  let tables = Array.mapi (fun k (b, _) -> odd_powers ring b windows.(k)) terms in
  let scheds = Array.mapi (fun k (_, e) -> schedule e windows.(k)) terms in
  let top = Array.fold_left (fun acc s -> max acc (Array.length s)) 0 scheds in
  let acc = Array.copy ring.one in
  let started = ref false in
  for p = top - 1 downto 0 do
    if !started then ring.mul acc acc acc;
    for k = 0 to Array.length terms - 1 do
      let s = scheds.(k) in
      if p < Array.length s && s.(p) <> 0 then begin
        let f = tables.(k).(s.(p) lsr 1) in
        if !started then ring.mul acc f acc
        else begin
          Array.blit f 0 acc 0 ring.len;
          started := true
        end
      end
    done
  done;
  ring.leave acc

let pow_ctx c b e =
  let ring = mont_ring c in
  multi_pow ring [| (ring.enter b, e) |]

let pow2 c b1 e1 b2 e2 =
  let ring = mont_ring c in
  multi_pow ring [| (ring.enter b1, e1); (ring.enter b2, e2) |]

let pow ~m b e =
  if Nat.equal m Nat.one then Nat.zero
  else if Nat.is_odd m then pow_ctx (context m) b e
  else begin
    let ring = plain_ring m in
    multi_pow ring [| (ring.enter b, e) |]
  end

(* Fixed-base comb (Lim-Lee): an exponent of up to [w*d] bits is read
   as [w] rows of [d] bits, and [table.(j)] is the product of
   [g^(2^(i*d))] over the set bits [i] of [j]. One pass over the [d]
   columns then costs [d] squarings and at most [d] multiplications. *)
type fixed_base = { fctx : ctx; g : Nat.t; d : int; table : int array array }

let w = 8

let fixed_base c g ~bits =
  if bits < 1 then invalid_arg "Modarith.fixed_base: bits";
  let ring = mont_ring c in
  let d = (bits + w - 1) / w in
  let rows = Array.make w (ring.enter g) in
  for i = 1 to w - 1 do
    let r = Array.copy rows.(i - 1) in
    for _ = 1 to d do ring.mul r r r done;
    rows.(i) <- r
  done;
  let table = Array.make (1 lsl w) ring.one in
  for i = 0 to w - 1 do
    table.(1 lsl i) <- rows.(i);
    for j = 1 to (1 lsl i) - 1 do
      let r = Array.make c.n 0 in
      ring.mul table.(j) rows.(i) r;
      table.((1 lsl i) + j) <- r
    done
  done;
  { fctx = c; g; d; table }

let pow_fixed f e =
  if Nat.num_bits e > w * f.d then pow_ctx f.fctx f.g e
  else begin
    let ring = mont_ring f.fctx in
    let acc = Array.copy ring.one in
    let started = ref false in
    for k = f.d - 1 downto 0 do
      if !started then ring.mul acc acc acc;
      let col = ref 0 in
      for i = w - 1 downto 0 do
        col := (!col lsl 1) lor Bool.to_int (Nat.bit e ((i * f.d) + k))
      done;
      if !col <> 0 then begin
        if !started then ring.mul acc f.table.(!col) acc
        else begin
          Array.blit f.table.(!col) 0 acc 0 ring.len;
          started := true
        end
      end
    done;
    ring.leave acc
  end

let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b)

(* Extended Euclid with a tiny signed-integer layer: coefficients can
   go negative even though all intermediate magnitudes stay below the
   modulus product. *)
type signed = { neg : bool; mag : Nat.t }

let s_of_nat n = { neg = false; mag = n }

let s_sub a b =
  (* a - b for signed values *)
  match a.neg, b.neg with
  | false, true -> { neg = false; mag = Nat.add a.mag b.mag }
  | true, false -> { neg = true; mag = Nat.add a.mag b.mag }
  | an, _ ->
    if Nat.compare a.mag b.mag >= 0 then { neg = an; mag = Nat.sub a.mag b.mag }
    else { neg = not an; mag = Nat.sub b.mag a.mag }

let s_mul_nat a n = { a with mag = Nat.mul a.mag n }

let inv ~m a =
  let a = Nat.rem a m in
  if Nat.is_zero a then raise Not_found;
  (* Invariants: r0 = x0*a (mod m), r1 = x1*a (mod m). *)
  let rec go r0 r1 x0 x1 =
    if Nat.is_zero r1 then
      if Nat.equal r0 Nat.one then x0 else raise Not_found
    else begin
      let q, r = Nat.divmod r0 r1 in
      go r1 r x1 (s_sub x0 (s_mul_nat x1 q))
    end
  in
  let x = go a m (s_of_nat Nat.one) (s_of_nat Nat.zero) in
  let reduced = Nat.rem x.mag m in
  if x.neg && not (Nat.is_zero reduced) then Nat.sub m reduced else reduced
