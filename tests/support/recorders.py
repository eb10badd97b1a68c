"""Recorders a test attaches when it wants a history the program does
not keep: ``src/`` retains what a period reads next, not every value it
ever produced."""


def record_predictions(controller):
    """Every ``Prediction`` the controller's predictor returns from now
    on, in order, in the list handed back."""
    predictor = controller.predictor
    predict = predictor.predict
    seen = []

    def recording_predict(*args, **kwargs):
        prediction = predict(*args, **kwargs)
        seen.append(prediction)
        return prediction

    predictor.predict = recording_predict
    return seen
