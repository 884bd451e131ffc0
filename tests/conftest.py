from hypothesis import settings

# every property test draws the same examples on every run and has no deadline
settings.register_profile("congrulab", derandomize=True, deadline=None)
settings.load_profile("congrulab")
