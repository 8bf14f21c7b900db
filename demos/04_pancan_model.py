"""The PanCan-style logistic baseline: per-nodule scores, per-patient max.

Weights come from a versioned key-value file; the packaged set is a
clearly-labeled synthetic placeholder (the published coefficients are not
part of this project).
"""

from lungrisk import pancan

weights = pancan.load_weights(pancan.placeholder_weights_path())
print("weight file keys:", ", ".join(sorted(weights.values)))

small = pancan.PanCanFeatures(age=62, sex="female", family_history=False,
                              emphysema=False, nodule_count=2, diameter_mm=4.0,
                              nodule_type="solid", upper_lobe=False, spiculation=False)
large_spiculated = pancan.PanCanFeatures(age=62, sex="female", family_history=False,
                                         emphysema=False, nodule_count=2, diameter_mm=18.0,
                                         nodule_type="part_solid", upper_lobe=True,
                                         spiculation=True)

print("small solid nodule:      ", round(pancan.nodule_score(small, weights), 4))
print("large spiculated nodule: ", round(pancan.nodule_score(large_spiculated, weights), 4))

patient = [small, large_spiculated]
print("patient (max aggregation): ", round(pancan.patient_score(patient, weights), 4))
print("patient (mean aggregation):", round(pancan.patient_score(patient, weights, agg='mean'), 4))

# the max never decreases when another nodule is found
extra = pancan.PanCanFeatures(age=62, sex="female", family_history=False,
                              emphysema=False, nodule_count=3, diameter_mm=6.0,
                              nodule_type="nonsolid", upper_lobe=False, spiculation=False)
print("after adding a third nodule:",
      round(pancan.patient_score(patient + [extra], weights), 4))
