module Zp = Ks_field.Zp

let deal rng ~holders secret =
  if holders < 1 then invalid_arg "Additive.deal: need at least one holder";
  let shares = Array.init holders (fun _ -> Zp.random rng) in
  let sum_rest = ref Zp.zero in
  for i = 1 to holders - 1 do
    sum_rest := Zp.add !sum_rest shares.(i)
  done;
  shares.(0) <- Zp.sub secret !sum_rest;
  shares

let reconstruct shares = Array.fold_left Zp.add Zp.zero shares
